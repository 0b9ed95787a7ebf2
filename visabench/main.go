// Command visabench is visasim's benchmark. It runs one named workload for
// a fixed time with a seed, checks every result against recorded digests,
// and prints the end-to-end metrics (with -trace 1, the per-layer metrics)
// as the last line of its output, one JSON object. README.md describes the
// workloads and metrics.
//
//	go build -o visabench . && ./visabench --workload sweep-open --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root: it writes records, spans and profiles
// under .bench_build/visabench-out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"visasim/internal/ace"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

const outDir = ".bench_build/visabench-out"

// setupRepeats is how many times a run sets up before timing; setup_s is
// the median.
const setupRepeats = 11

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("visabench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweep-open, sweep-controlled or service-small")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured run time")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	record := fs.String("record-digests", "", "simulate every pooled cell and write reference digests to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workers := runtime.NumCPU()
	if *record != "" {
		if err := recordDigests(*record, workers); err != nil {
			fmt.Fprintln(os.Stderr, "visabench:", err)
			return 1
		}
		return 0
	}
	s, err := specByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "visabench:", err)
		return 2
	}
	if err := bench(stdout, s, *seed, *seconds, *traced == 1, workers); err != nil {
		fmt.Fprintln(os.Stderr, "visabench:", err)
		return 1
	}
	return 0
}

// record is the full account of one run, written under outDir.
type record struct {
	Host      host               `json:"host"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Setups    int                `json:"setup_repeats"`
	Sweeps    int                `json:"sweeps"`
	Attempted int                `json:"attempted"`
	Failed    []string           `json:"failed,omitempty"`
	Ops       []opRecord         `json:"ops"`
	EndToEnd  map[string]detail  `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// opRecord is one timed sweep in issue order.
type opRecord struct {
	Warm   bool    `json:"warm"`
	Budget uint64  `json:"budget"`
	MS     float64 `json:"ms"`
}

func bench(stdout io.Writer, s spec, seed int64, seconds int, traced bool, workers int) error {
	d, err := loadDigests(s.name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	p, tgt, setup, err := setUp(s, seed, workers)
	if err != nil {
		return err
	}
	defer tgt.close()

	rec := record{
		Host: describeHost(), Workload: s.name, Seed: seed, Seconds: seconds,
		Trace: traced, Setups: len(setup),
	}
	var ps *pass
	if !traced {
		ps = runPass(tgt, p, d, passOpts{pairs: s.pairs(seconds), limit: passLimit(seconds)})
	} else {
		var layers map[string]float64
		if ps, layers, err = tracedRun(tgt, p, d, seconds, workers); err != nil {
			return err
		}
		rec.PerLayer = layers
	}
	if s.service {
		parity(ps, p, workers)
	}
	rec.Sweeps = len(ps.ops)
	for _, o := range ps.ops {
		rec.Ops = append(rec.Ops, opRecord{Warm: o.warm, Budget: p.sweeps[o.sweep].budget, MS: float64(o.dur) / float64(time.Millisecond)})
	}
	rec.Attempted = ps.attempted
	rec.Failed = ps.failed
	rec.EndToEnd = endToEnd(ps, setup)
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("record-%s-seed%d-trace%t.json", s.name, seed, traced)), rec); err != nil {
		return err
	}
	printRecord(stdout, rec)

	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(ps.failed) == 0, Attempted: ps.attempted, Failed: len(ps.failed), Metrics: map[string]value{}}
	if traced {
		for _, m := range perLayerDefs() {
			result.Metrics[m.name] = value{rec.PerLayer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEndDefs {
			result.Metrics[m.name] = rec.EndToEnd[m.name].value
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// passLimit is the wall time after which a pass starts no new pair: twice
// the run time, so that even a traced run on a host at half the nominal
// pace ends well within the benchmark's exit deadline.
func passLimit(seconds int) time.Duration { return 2 * time.Duration(seconds) * time.Second }

// setUp builds the seeded plan and, for service-small, starts the daemons
// and coordinator, setupRepeats times; it keeps the last set-up and returns
// every set-up's duration.
func setUp(s spec, seed int64, workers int) (*plan, target, []float64, error) {
	var times []float64
	var p *plan
	var tgt target
	for i := 0; i < setupRepeats; i++ {
		if tgt != nil {
			tgt.close()
		}
		t0 := time.Now()
		var err error
		if p, err = newPlan(s, seed); err != nil {
			return nil, nil, nil, err
		}
		if s.service {
			if tgt, err = startCluster(seed); err != nil {
				return nil, nil, nil, err
			}
		} else {
			tgt = local{workers: workers}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return p, tgt, times, nil
}

// parity checks that the coordinator's results for the pass's first cold
// sweep are byte-identical to a local harness run of the same cells.
func parity(ps *pass, p *plan, workers int) {
	if len(ps.colds) == 0 || ps.sample == nil {
		return
	}
	cells := p.sweeps[ps.colds[0]].cells
	ps.attempted += len(cells)
	local, err := harness.Run(cells, harness.Options{Workers: workers})
	if err != nil {
		ps.failed = append(ps.failed, "parity run: "+err.Error())
		return
	}
	for _, k := range sameBytes(cells, ps.sample, local) {
		ps.failed = append(ps.failed, k+": coordinator result differs from local run")
	}
}

// tracedRun issues half a run's pairs untraced, then as many traced, then
// measures the layers the sweeps call into. It returns the untraced pass
// (its end-to-end row prints beside the per-layer table) and the per-layer
// metrics.
func tracedRun(tgt target, p *plan, d digests, seconds, workers int) (*pass, map[string]float64, error) {
	pairs := (p.spec.pairs(seconds) + 1) / 2
	ref := runPass(tgt, p, d, passOpts{pairs: pairs, limit: passLimit(seconds)})
	tr := &tracer{t0: time.Now()}
	profDir := filepath.Join(outDir, fmt.Sprintf("prof-%s-seed%d", p.spec.name, p.seed))
	if err := os.RemoveAll(profDir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return nil, nil, err
	}
	cl, service := tgt.(*cluster)
	opts := passOpts{from: pairs, pairs: pairs, limit: passLimit(seconds), tr: tr, profDir: profDir}
	var svcProf *os.File
	var err error
	if service {
		// The daemons run the harness themselves, so the whole traced
		// pass is profiled from here instead of per sweep.
		opts.profDir = ""
		if svcProf, err = os.Create(filepath.Join(profDir, "service.pprof")); err != nil {
			return nil, nil, err
		}
		if err := pprof.StartCPUProfile(svcProf); err != nil {
			svcProf.Close()
			return nil, nil, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tp := runPass(tgt, p, d, opts)
	runtime.ReadMemStats(&m1)
	if service {
		pprof.StopCPUProfile()
		if err := svcProf.Close(); err != nil {
			return nil, nil, err
		}
	}
	in := layerInputs{
		ref: ref, traced: tp, service: service, simWorkers: workers,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
	}
	files, err := filepath.Glob(filepath.Join(profDir, "*.pprof"))
	if err != nil {
		return nil, nil, err
	}
	if in.shares, err = profileShares(files); err != nil {
		return nil, nil, err
	}
	if service {
		in.simWorkers = daemonCount // one simulation worker per daemon
		in.directMS = directWarm(cl, p, tp, d, tr)
	}
	if err := probeLayers(p, tp.colds, tr, &in); err != nil {
		return nil, nil, err
	}
	// The traced pass's own failures count with the reference pass's.
	ref.attempted += tp.attempted
	ref.failed = append(ref.failed, tp.failed...)
	if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", p.spec.name, p.seed))); err != nil {
		return nil, nil, err
	}
	return ref, perLayer(in), nil
}

// directWarmSamples bounds how many warm sweeps are re-sent straight to a
// daemon.
const directWarmSamples = 10

// directWarm re-sends warm sweeps of the traced pass straight to the first
// daemon: once to fill its cache with the cells the coordinator routed to
// the other daemon, then timed. It returns the timed latencies.
func directWarm(cl *cluster, p *plan, tp *pass, d digests, tr *tracer) []float64 {
	var lat []float64
	for _, o := range tp.ops {
		if !o.warm || len(lat) == directWarmSamples {
			continue
		}
		sw := p.sweeps[o.sweep]
		if _, _, err := cl.direct(sw.cells); err != nil {
			tp.failed = append(tp.failed, "direct sweep: "+err.Error())
			continue
		}
		start := time.Now()
		res, _, err := cl.direct(sw.cells)
		dur := time.Since(start)
		tp.attempted += len(sw.cells)
		if err != nil {
			tp.failed = append(tp.failed, "direct sweep: "+err.Error())
			continue
		}
		for _, k := range d.checkSweep(sw, res) {
			tp.failed = append(tp.failed, k+": direct result differs from its reference digest")
		}
		root := tr.add(0, "direct.warm", start, start.Add(dur), map[string]string{"budget": fmt.Sprint(sw.budget)})
		tr.add(root, "server.Client.RunStats", start, start.Add(dur), nil)
		lat = append(lat, float64(dur)/float64(time.Millisecond))
	}
	return lat
}

// profileSlack mirrors core's in-flight slack beyond a cell's budget, so
// the probes profile as many instructions as a cell does.
const profileSlack = 4096

// probeLayers times program synthesis once per distinct benchmark and a
// cold ACE profile per distinct benchmark and length of the traced pass's
// cold sweeps. A profile length one instruction past the cell's keeps the
// call cold without touching the profiles the sweeps cached.
func probeLayers(p *plan, colds []int, tr *tracer, in *layerInputs) error {
	seen := map[string]bool{}
	var benches []workload.Benchmark
	for _, m := range workload.Mixes() {
		for _, n := range m.Benchmarks {
			if !seen[n] {
				seen[n] = true
				benches = append(benches, workload.MustGet(n))
			}
		}
	}
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })
	probeStart := time.Now()
	root := tr.add(0, "layer.probes", probeStart, probeStart, nil)
	defer func() { tr.end(root, time.Now()) }()
	for _, b := range benches {
		t0 := time.Now()
		if _, err := b.Generate(); err != nil {
			return fmt.Errorf("generating %s: %w", b.Name, err)
		}
		tr.add(root, "workload.Generate", t0, time.Now(), map[string]string{"bench": b.Name})
		in.generateS += time.Since(t0).Seconds()
	}
	for _, i := range colds {
		budget := p.sweeps[i].budget
		n := budget + budget/4 + profileSlack + 1
		for _, b := range benches {
			t0 := time.Now()
			if _, err := core.ProfileFor(b, n, ace.DefaultWindow); err != nil {
				return fmt.Errorf("profiling %s: %w", b.Name, err)
			}
			tr.add(root, "core.ProfileFor", t0, time.Now(), map[string]string{"bench": b.Name, "n": fmt.Sprint(n)})
			in.profileS += time.Since(t0).Seconds()
			in.profiledInstr += n
		}
	}
	return nil
}

func printRecord(w io.Writer, rec record) {
	h := rec.Host
	fmt.Fprintf(w, "host %s %s/%s cpu=%q nproc=%d gomaxprocs=%d commit=%s\n",
		h.GoVersion, h.GOOS, h.GOARCH, h.CPUModel, h.NProc, h.GOMAXPROCS, h.GitCommit)
	fmt.Fprintf(w, "run workload=%s seed=%d seconds=%d trace=%t sweeps=%d setup_repeats=%d attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Sweeps, rec.Setups, rec.Attempted, len(rec.Failed))
	for i, f := range rec.Failed {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(rec.Failed)-i)
			break
		}
		fmt.Fprintln(w, "  FAIL", f)
	}
	for _, m := range endToEndDefs {
		d := rec.EndToEnd[m.name]
		pct := ""
		if d.Percentile > 0 {
			pct = fmt.Sprintf(" p%d", d.Percentile)
		}
		fmt.Fprintf(w, "%-40s %14.6g %-9s median=%.6g q1=%.6g q3=%.6g n=%d%s\n",
			rec.Workload+"/"+m.name, d.Value, m.unit, d.Median, d.Q1, d.Q3, d.N, pct)
	}
	if rec.PerLayer == nil {
		return
	}
	for _, m := range perLayerDefs() {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", rec.Workload+"/"+m.name, rec.PerLayer[m.name], m.unit)
	}
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
