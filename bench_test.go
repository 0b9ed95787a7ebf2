// Package visasim's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (one benchmark per artefact — see DESIGN.md's
// experiment index) plus throughput micro-benchmarks for the substrates.
//
// The figure benchmarks report the headline quantities as custom metrics
// (avf-reduction, ipc-change, pve, …) so `go test -bench` doubles as a
// compact reproduction report. Absolute wall-clock numbers measure the
// simulator, not the simulated machine.
package visasim

import (
	"encoding/json"
	"flag"
	"os"
	"sync"
	"testing"
	"time"

	"visasim/internal/ace"
	"visasim/internal/cluster"
	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/experiments"
	"visasim/internal/explore"
	"visasim/internal/harness"
	"visasim/internal/inject"
	"visasim/internal/iqorg"
	"visasim/internal/isa"
	"visasim/internal/pipeline"
	"visasim/internal/trace"
	"visasim/internal/twin"
	"visasim/internal/uarch"
	"visasim/internal/workload"
)

// benchBudget keeps `go test -bench=.` affordable; cmd/experiments uses
// larger budgets for the recorded EXPERIMENTS.md runs.
const benchBudget = 60_000

func params() experiments.Params { return experiments.Params{Budget: benchBudget} }

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(params())
		if err != nil {
			b.Fatal(err)
		}
		var iq, rob float64
		for ci := 0; ci < 3; ci++ {
			iq += r.AVF[ci][0] / 3
			rob += r.AVF[ci][1] / 3
		}
		b.ReportMetric(100*iq, "iq-avf-%")
		b.ReportMetric(100*rob, "rob-avf-%")
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(params())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeanLen, "mean-rql")
		b.ReportMetric(r.MeanACEPct, "ready-ace-%")
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(params())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Average, "accuracy-%")
		b.ReportMetric(100*r.SquashedInclusive, "squashed-acc-%")
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(params())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.AvgAVFReduction(2), "opt2-avf-cut-%")
		b.ReportMetric(100*r.AvgIPCChange(2), "opt2-ipc-change-%")
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(params())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.AvgAVFReduction(), "opt2-avf-cut-%")
		b.ReportMetric(100*r.AvgIPCChange(), "opt2-ipc-change-%")
	}
}

func benchDVM(b *testing.B, run func(experiments.Params) (*experiments.Fig8Result, error)) {
	for i := 0; i < b.N; i++ {
		r, err := run(params())
		if err != nil {
			b.Fatal(err)
		}
		var before, after float64
		for ci := 0; ci < 3; ci++ {
			before += 100 * r.PVEBase[ci][2] / 3 // 0.5*MaxAVF column
			after += 100 * r.PVEDVM[ci][2] / 3
		}
		b.ReportMetric(before, "pve-base-%")
		b.ReportMetric(after, "pve-dvm-%")
	}
}

func BenchmarkFig8(b *testing.B) { benchDVM(b, experiments.Fig8) }
func BenchmarkFig9(b *testing.B) { benchDVM(b, experiments.Fig9) }

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(params())
		if err != nil {
			b.Fatal(err)
		}
		var open, dyn float64
		for ci := 0; ci < 3; ci++ {
			for fi := range r.Fracs {
				open += 100 * r.PVE[2][ci][fi] // visa+opt2
				dyn += 100 * r.PVE[4][ci][fi]  // dvm-dynamic
			}
		}
		n := float64(3 * len(r.Fracs))
		b.ReportMetric(open/n, "pve-opt2-%")
		b.ReportMetric(dyn/n, "pve-dvm-%")
	}
}

func BenchmarkAblationOracleTags(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationOracleTags(params())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((r.Profiled[0]+r.Profiled[1]+r.Profiled[2])/3, "tags-norm-avf")
		b.ReportMetric((r.Oracle[0]+r.Oracle[1]+r.Oracle[2])/3, "oracle-norm-avf")
	}
}

func BenchmarkAblationTcache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationTcache(params())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NormIPC[2], "t16-norm-ipc")
		b.ReportMetric(r.NormIPC[len(r.NormIPC)-1], "tinf-norm-ipc")
	}
}

func BenchmarkAblationIQSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationIQSize(params())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AVF[len(r.AVF)-1]/r.AVF[0], "avf-128-over-32")
	}
}

func BenchmarkFaultInjection(b *testing.B) {
	var instrs uint64
	var simTime time.Duration
	for i := 0; i < b.N; i++ {
		proc := newBenchProcessor(b, workload.Mixes()[0].Benchmarks[:])
		t0 := time.Now()
		c, err := inject.Run(proc, inject.Options{
			Instructions:     benchBudget,
			StrikesPerKCycle: 400,
			Seed:             uint64(i),
		})
		simTime += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		instrs += benchBudget
		b.ReportMetric(100*c.EmpiricalAVF(), "empirical-avf-%")
		b.ReportMetric(100*c.MeasuredAVF, "accounted-avf-%")
	}
	recordBench(b, "FaultInjection", 0, instrs, simTime)
}

// --- substrate micro-benchmarks -------------------------------------------

// benchJSONPath, when set, makes the throughput benchmarks append their
// results to a machine-readable JSON file (see `make bench-throughput`,
// which writes BENCH_pr7.json) so throughput regressions are diffable
// across PRs. For BenchmarkTwinScreen the Instructions field counts
// screened configurations, so InstrsPerSec is configs/sec.
var benchJSONPath = flag.String("bench-json", "", "write throughput benchmark records to this JSON file")

// benchRecord is one benchmark's machine-readable result. Cycle-rate
// fields carry omitempty: instruction-only benchmarks (dispatch
// scheduling, fault-injection screening) have no simulated-cycle notion,
// and a literal `"CyclesPerSec": 0` in the JSON reads as a catastrophic
// regression rather than "not measured".
type benchRecord struct {
	Cycles       uint64  `json:",omitempty"` // simulated cycles across all iterations
	Instructions uint64  // committed instructions across all iterations
	Seconds      float64 // wall-clock spent simulating
	CyclesPerSec float64 `json:",omitempty"`
	InstrsPerSec float64
	// SkippedCycles counts cycles advanced by dead-cycle skip-ahead
	// (included in Cycles); simulation benchmarks report it so the
	// skip-ahead contribution stays attributable across PRs.
	SkippedCycles uint64 `json:",omitempty"`
}

var (
	benchRecMu sync.Mutex
	benchRecs  = map[string]benchRecord{}
)

// recordBench stores a benchmark record and rewrites the JSON file (maps
// marshal with sorted keys, so the output is stable). Pass cycles 0 for
// instruction-only benchmarks; the zero-valued cycle-rate fields are then
// omitted from the JSON. The optional trailing count is skipped cycles.
func recordBench(b *testing.B, name string, cycles, instrs uint64, elapsed time.Duration, skipped ...uint64) {
	b.Helper()
	if *benchJSONPath == "" || elapsed <= 0 {
		return
	}
	rec := benchRecord{
		Cycles:       cycles,
		Instructions: instrs,
		Seconds:      elapsed.Seconds(),
		InstrsPerSec: float64(instrs) / elapsed.Seconds(),
	}
	if cycles > 0 {
		rec.CyclesPerSec = float64(cycles) / elapsed.Seconds()
	}
	for _, s := range skipped {
		rec.SkippedCycles += s
	}
	benchRecMu.Lock()
	defer benchRecMu.Unlock()
	benchRecs[name] = rec
	blob, err := json.MarshalIndent(benchRecs, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(*benchJSONPath, append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// benchSimThroughput runs one full-pipeline throughput benchmark on the
// given workload mix and records it under recName. Skipped cycles are
// reported separately so the dead-cycle skip-ahead contribution stays
// attributable across PRs (skipped cycles cost ~nothing; the cycles/sec
// headline includes them because they are simulated time the experiments
// would otherwise have to step through).
func benchSimThroughput(b *testing.B, names []string, recName string) {
	var cycles, instrs, skipped uint64
	var simTime time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		proc := newBenchProcessor(b, names)
		b.StartTimer()
		t0 := time.Now()
		res := proc.Run()
		simTime += time.Since(t0)
		cycles += res.Cycles
		instrs += res.TotalCommits()
		skipped += res.SkippedCycles
		b.ReportMetric(float64(res.Cycles), "cycles/op")
		b.ReportMetric(float64(res.TotalCommits()), "instrs/op")
	}
	if simTime > 0 {
		b.ReportMetric(float64(cycles)/simTime.Seconds(), "cycles/sec")
	}
	if cycles > 0 {
		b.ReportMetric(100*float64(skipped)/float64(cycles), "skipped-%")
	}
	recordBench(b, recName, cycles, instrs, simTime, skipped)
}

// BenchmarkSimulatorThroughput measures simulated cycles per second on the
// CPU group A workload: the figure that bounds every experiment's cost.
func BenchmarkSimulatorThroughput(b *testing.B) {
	benchSimThroughput(b, workload.Mixes()[0].Benchmarks[:], "SimulatorThroughput")
}

// BenchmarkSimulatorThroughputMEM is the memory-bound counterpart (MEM
// group A): long L2-miss stalls make dead-cycle skip-ahead and the cached
// load-block disposition dominant here, so this record attributes those
// wins separately from the SoA and batching wins visible on the CPU-bound
// mix.
func BenchmarkSimulatorThroughputMEM(b *testing.B) {
	benchSimThroughput(b, workload.MixesIn(workload.CatMEM)[0].Benchmarks[:], "SimulatorThroughputMEM")
}

// BenchmarkSimulatorThroughputMIX covers the third standard mix category
// (MIX group A, CPU+MEM blend).
func BenchmarkSimulatorThroughputMIX(b *testing.B) {
	benchSimThroughput(b, workload.MixesIn(workload.CatMIX)[0].Benchmarks[:], "SimulatorThroughputMIX")
}

// BenchmarkBatchedSweep measures sweep throughput through the harness — the
// batched-cell path where workers reuse per-worker uop pools and all cells
// share the tagged-program cache. One op = a six-cell sweep spanning the
// CPU/MIX/MEM group-A mixes under both schedulers. Cycles/sec here is
// aggregate across workers (it scales with GOMAXPROCS), so compare it
// against itself across PRs, not against the single-core records above.
func BenchmarkBatchedSweep(b *testing.B) {
	mixes := workload.Mixes()
	var cells []harness.Cell
	for _, mi := range []int{0, 3, 6} { // CPU-A, MIX-A, MEM-A
		for _, s := range []core.Scheme{core.SchemeBase, core.SchemeVISA} {
			cells = append(cells, harness.Cell{
				Key: mixes[mi].Name + "/" + s.String(),
				Cfg: core.Config{
					Benchmarks:      mixes[mi].Benchmarks[:],
					Scheme:          s,
					Policy:          pipeline.PolicyICOUNT,
					MaxInstructions: benchBudget / 4,
				},
			})
		}
	}
	var cycles, instrs, skipped uint64
	var simTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		res, err := harness.Run(cells, harness.Options{})
		simTime += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			cycles += r.Cycles
			instrs += r.TotalCommits()
			skipped += r.SkippedCycles
		}
	}
	if simTime > 0 {
		b.ReportMetric(float64(cycles)/simTime.Seconds(), "cycles/sec")
	}
	recordBench(b, "BatchedSweep", cycles, instrs, simTime, skipped)
}

// BenchmarkTwinScreen measures the analytical twin's screening throughput
// (configs/sec): the rate internal/explore evaluates design points at
// during screen-then-verify exploration. One op = one Decode+Evaluate over
// the default design space, single goroutine.
func BenchmarkTwinScreen(b *testing.B) {
	model, err := twin.Default()
	if err != nil {
		b.Fatal(err)
	}
	enum, err := explore.DefaultSpace().Compile(model)
	if err != nil {
		b.Fatal(err)
	}
	var in twin.Input
	var pred twin.Prediction
	size := enum.Size()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		enum.Decode(int64(i)%size, &in)
		model.Evaluate(&in, &pred)
	}
	elapsed := time.Since(t0)
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "configs/sec")
	}
	recordBench(b, "TwinScreen", 0, uint64(b.N), elapsed)
}

// BenchmarkDispatchScheduler measures the coordinator's scheduling overhead
// (items/sec): cost estimation through the analytical twin plus a Push/Pop
// round trip through the priority queue under SJF ordering, the most
// expensive scheduler configuration. One op = one item scheduled; items
// cycle through all priority classes and a spread of budgets so the heap
// sees realistic reordering. The Instructions field of the JSON record
// counts scheduled items, so InstrsPerSec is items/sec.
func BenchmarkDispatchScheduler(b *testing.B) {
	model, err := twin.Default()
	if err != nil {
		b.Fatal(err)
	}
	cost := cluster.TwinCost(model)
	mixes := workload.Mixes()
	cfgs := make([]core.Config, 8)
	for i := range cfgs {
		cfgs[i] = core.Config{
			Benchmarks:      mixes[i%len(mixes)].Benchmarks[:],
			Scheme:          core.SchemeBase,
			MaxInstructions: uint64(50_000 * (i + 1)),
		}
	}
	q := cluster.NewQueue(cluster.OrderSJF)
	const batch = 64 // drain in batches so the heap reaches real depth
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		q.Push(&cluster.Item{
			Class: cluster.PriorityClass(i % cluster.NumClasses),
			Cost:  cost(cfgs[i%len(cfgs)]),
		})
		if (i+1)%batch == 0 {
			for j := 0; j < batch; j++ {
				q.Pop()
			}
		}
	}
	for q.Len() > 0 {
		q.Pop()
	}
	elapsed := time.Since(t0)
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "items/sec")
	}
	recordBench(b, "DispatchScheduler", 0, uint64(b.N), elapsed)
}

func BenchmarkTraceExecutor(b *testing.B) {
	w := workload.MustGet("gcc")
	prog, err := w.Generate()
	if err != nil {
		b.Fatal(err)
	}
	exec := trace.NewExecutor(prog, 1, 0)
	var d trace.DynInst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.Next(&d)
	}
}

func BenchmarkACEAnalyzer(b *testing.B) {
	w := workload.MustGet("gcc")
	prog, err := w.Generate()
	if err != nil {
		b.Fatal(err)
	}
	exec := trace.NewExecutor(prog, 1, 0)
	an := ace.New(ace.DefaultWindow, func(uint64, bool) {})
	var d trace.DynInst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.Next(&d)
		an.Retire(&d)
	}
}

// iqOrgBenchUops builds a reusable pool of synthetic uops spread across
// four threads, sized to fill one issue queue per pass.
func iqOrgBenchUops(n int) []*uarch.Uop {
	in := &isa.Inst{Kind: isa.IntALU, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	pool := make([]*uarch.Uop, n)
	for i := range pool {
		pool[i] = &uarch.Uop{Dyn: trace.DynInst{Static: in}, Thread: int32(i % 4), IQSlot: -1, LSQSlot: -1}
	}
	return pool
}

// iqOrgPass runs one synthetic fill/wake/drain pass shaped like the
// pipeline's issue-queue hot path: storage operations (Insert, Wake,
// Remove) go straight to the shared queue; the policy decisions
// (CanAccept, Select, EndCycle) dispatch through the Organization
// interface when org is non-nil, and hand-inline the seed's unified-AGE
// behaviour when it is nil (the "direct" baseline; the internal/iqorg
// overhead test asserts the difference stays under 5%). Odd-indexed uops
// arrive with a pending source so half the pool takes the Wake path;
// draining selects oldest-first in issue-width batches. Returns the
// select cycles and queue ops consumed.
func iqOrgPass(org iqorg.Organization, q *uarch.IQ, pool []*uarch.Uop, age uint64) (cycles, ops uint64) {
	const issueWidth = 8
	for i, u := range pool {
		u.Age = age + uint64(i)
		u.SrcPending = int8(i & 1)
		if q.Full() || (org != nil && !org.CanAccept(int(u.Thread))) {
			u.SrcPending = 0
			continue
		}
		q.Insert(u)
		ops++
	}
	for _, u := range pool {
		if u.IQSlot >= 0 && u.SrcPending != 0 {
			u.SrcPending = 0
			q.Wake(u)
			ops++
		}
	}
	for q.Len() > 0 {
		var sel []int32
		if org != nil {
			sel = org.Select(uarch.SchedOldestFirst)
		} else {
			sel = q.ReadyCandidates(uarch.SchedOldestFirst)
		}
		ops++
		if len(sel) == 0 {
			break
		}
		if len(sel) > issueWidth {
			sel = sel[:issueWidth]
		}
		for _, slot := range sel {
			q.Remove(q.At(int(slot)))
			ops++
		}
		if org != nil {
			org.EndCycle(age + cycles)
		}
		cycles++
	}
	return cycles, ops
}

// BenchmarkIQOrganizations measures the issue-queue organization layer's
// op throughput (ops/sec over Insert+Wake+Select+Remove) for every
// registered organization, plus the "direct" bare-queue baseline. One op
// unit = one fill/wake/drain pass over a paper-sized 96-entry queue.
func BenchmarkIQOrganizations(b *testing.B) {
	iqSize := config.Default().IQSize
	variants := []struct {
		name string
		mk   func() iqorg.Organization
	}{
		{"direct", nil},
	}
	for _, k := range iqorg.Kinds() {
		k := k
		variants = append(variants, struct {
			name string
			mk   func() iqorg.Organization
		}{k.String(), func() iqorg.Organization { return iqorg.NewKind(k, uarch.NewIQ(iqSize), 0) }})
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			pool := iqOrgBenchUops(iqSize)
			var org iqorg.Organization
			q := uarch.NewIQ(iqSize)
			if v.mk != nil {
				org = v.mk()
				q = org.Queue()
			}
			var cycles, ops uint64
			age := uint64(0)
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				c, o := iqOrgPass(org, q, pool, age)
				cycles += c
				ops += o
				age += uint64(iqSize) + c
			}
			elapsed := time.Since(t0)
			if elapsed > 0 {
				b.ReportMetric(float64(ops)/elapsed.Seconds(), "queue-ops/sec")
			}
			recordBench(b, "IQOrg/"+v.name, cycles, ops, elapsed)
		})
	}
}

func BenchmarkProgramGeneration(b *testing.B) {
	w := workload.MustGet("gcc")
	for i := 0; i < b.N; i++ {
		if _, err := w.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

func newBenchProcessor(b *testing.B, names []string) *pipeline.Processor {
	b.Helper()
	streams := make([]*trace.Stream, len(names))
	for i, name := range names {
		w, err := workload.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		prof, err := core.ProfileFor(w, benchBudget+8192, ace.DefaultWindow)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := w.Generate()
		if err != nil {
			b.Fatal(err)
		}
		streams[i] = trace.NewStream(trace.NewExecutor(prog, w.Params.Seed, i), prof.Tag, prof.Bits)
	}
	proc, err := pipeline.New(pipeline.Params{
		Machine:         config.Default(),
		Scheduler:       uarch.SchedOldestFirst,
		Policy:          pipeline.PolicyICOUNT,
		Streams:         streams,
		MaxInstructions: benchBudget,
	})
	if err != nil {
		b.Fatal(err)
	}
	return proc
}
