package core

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"visasim/internal/ace"
	"visasim/internal/pipeline"
	"visasim/internal/program"
	"visasim/internal/trace"
	"visasim/internal/workload"
)

func quickCfg(scheme Scheme) Config {
	return Config{
		Benchmarks:      []string{"bzip2", "eon", "gcc", "perlbmk"},
		Scheme:          scheme,
		Policy:          pipeline.PolicyICOUNT,
		MaxInstructions: 15_000,
		Warmup:          -1,
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Benchmarks: []string{"gcc"}}
	out, err := c.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxInstructions != DefaultInstructions {
		t.Fatal("budget default missing")
	}
	if out.Warmup != int64(DefaultInstructions/4) {
		t.Fatalf("warmup default %d", out.Warmup)
	}
	if out.Machine == nil || out.Machine.IQSize != 96 {
		t.Fatal("machine default missing")
	}
}

func TestConfigErrors(t *testing.T) {
	cases := []Config{
		{},                              // no benchmarks
		{Benchmarks: make([]string, 9)}, // too many threads
		{Benchmarks: []string{"gcc"}, Scheme: SchemeDVM}, // DVM without target
	}
	for i, c := range cases {
		if _, err := Run(c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Run(Config{Benchmarks: []string{"nonesuch"}, MaxInstructions: 1000}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickCfg(SchemeVISAOpt2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(SchemeVISAOpt2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.IQAVF != b.IQAVF || a.ThroughputIPC != b.ThroughputIPC {
		t.Fatal("core runs are not reproducible")
	}
}

func TestAllSchemesRun(t *testing.T) {
	var maxAVF float64
	for _, s := range []Scheme{SchemeBase, SchemeVISA, SchemeVISAOpt1, SchemeVISAOpt2} {
		r, err := Run(quickCfg(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if r.TotalCommits() < 15_000 {
			t.Errorf("%v under budget", s)
		}
		if r.MaxIQAVF > maxAVF {
			maxAVF = r.MaxIQAVF
		}
	}
	for _, s := range []Scheme{SchemeDVM, SchemeDVMStatic} {
		c := quickCfg(s)
		c.DVMTarget = 0.5 * maxAVF
		c.DVMStaticRatio = 1.5
		r, err := Run(c)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if r.TotalCommits() < 15_000 {
			t.Errorf("%v under budget", s)
		}
		if s == SchemeDVM && r.DVMMeanRatio == 0 {
			t.Error("dynamic DVM did not report a mean ratio")
		}
	}
}

func TestSchemeNames(t *testing.T) {
	want := map[Scheme]string{
		SchemeBase: "base", SchemeVISA: "visa", SchemeVISAOpt1: "visa+opt1",
		SchemeVISAOpt2: "visa+opt2", SchemeDVMStatic: "dvm-static", SchemeDVM: "dvm",
	}
	for s, n := range want {
		if s.String() != n {
			t.Errorf("%d renders %q, want %q", s, s.String(), n)
		}
	}
}

func TestProfileCacheReuse(t *testing.T) {
	b := workload.MustGet("gcc")
	e1, err := budgetFor(b, 5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := budgetFor(b, 5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("cache returned distinct entries for the same key")
	}
	e3, err := budgetFor(b, 6000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e3 {
		t.Fatal("different budgets shared an entry")
	}
	if e1.prog != e3.prog {
		t.Fatal("different budgets of one benchmark hold different programs")
	}
	// ProfileFor builds a full profile per call, from the same shared
	// program and analysis.
	p1, err := ProfileFor(b, 5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ProfileFor(b, 5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("ProfileFor returned different profiles for the same key")
	}
	if !reflect.DeepEqual(p1.Tag, e1.tags) {
		t.Fatal("ProfileFor's tags differ from the budget cache's")
	}
}

var concurrentRuns atomic.Int32

// TestProfileForConcurrent has several goroutines ask for one benchmark at
// different lengths at once — some sharing a key, some forcing the shared
// analysis to grow — and checks each cache entry and each ProfileFor
// profile against a sequential run, and that every length shares one
// program that nothing wrote to.
func TestProfileForConcurrent(t *testing.T) {
	// A window no other test or earlier run (-count) used, so every key
	// and the shared analysis start cold.
	window := 700 + int(concurrentRuns.Add(1))
	b := workload.MustGet("gcc")
	lengths := []uint64{3000, 64, 9000, 3000, 1, 5000, 9000, 700}

	type out struct {
		entry *budgetEntry
		prof  *ace.Profile
		err   error
	}
	got := make([]out, len(lengths))
	var wg sync.WaitGroup
	for i, n := range lengths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := budgetFor(b, n, window)
			if err != nil {
				got[i].err = err
				return
			}
			prof, err := ProfileFor(b, n, window)
			got[i] = out{e, prof, err}
		}()
	}
	wg.Wait()

	fresh, err := b.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range lengths {
		if got[i].err != nil {
			t.Fatalf("n=%d: %v", n, got[i].err)
		}
		want, err := ace.Run(fresh, b.Params.Seed, 0, n, window)
		if err != nil {
			t.Fatal(err)
		}
		e := got[i].entry
		// Bits compare by value: a derived profile shares a longer
		// analysis's storage, so its last word may carry later bits.
		for _, bits := range []*trace.BitSet{e.bits, got[i].prof.Bits} {
			if !reflect.DeepEqual(bits.Words(), want.Bits.Words()) || bits.Len() != want.Bits.Len() {
				t.Fatalf("n=%d: concurrent profile's bits differ from a sequential one's", n)
			}
		}
		gp, wp := *got[i].prof, *want
		gp.Bits, wp.Bits = nil, nil
		if !reflect.DeepEqual(gp, wp) {
			t.Fatalf("n=%d: concurrent profile differs from a sequential one", n)
		}
		if !reflect.DeepEqual(e.tags, want.Tag) {
			t.Fatalf("n=%d: cached tags differ from a sequential profile's", n)
		}
		if e.aceFrac != want.ACEFraction() || e.accuracy != want.Accuracy() {
			t.Fatalf("n=%d: cached summary figures differ from a sequential profile's", n)
		}
		if e.prog != got[0].entry.prog {
			t.Fatalf("n=%d: lengths of one benchmark hold different programs", n)
		}
	}
	if !reflect.DeepEqual(got[0].entry.prog.Instrs, fresh.Instrs) {
		t.Fatal("the shared program differs from a fresh Generate: something wrote to it")
	}
}

var memoryRuns atomic.Int32

// TestBudgetCacheRetainsTagsOnly profiles ten new budgets of every mix
// benchmark after one warm budget and bounds the heap each new (benchmark,
// budget) entry keeps: its tags, two summary figures and a view of the
// shared bits, not a program or per-PC instance counts. It also checks that
// every budget of a benchmark shares one program.
func TestBudgetCacheRetainsTagsOnly(t *testing.T) {
	// A window no other test or earlier run (-count) used, so every key
	// is new; the warm budget's analysis covers every shorter one.
	window := 2000 + int(memoryRuns.Add(1))
	const warm, budgetsPerBench = 12_000, 10
	seen := map[string]bool{}
	var benches []workload.Benchmark
	for _, m := range workload.Mixes() {
		for _, name := range m.Benchmarks {
			if !seen[name] {
				seen[name] = true
				benches = append(benches, workload.MustGet(name))
			}
		}
	}
	progs := make([]*program.Program, len(benches))
	for i, b := range benches {
		e, err := budgetFor(b, warm, window)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = e.prog
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 1; k <= budgetsPerBench; k++ {
		for i, b := range benches {
			e, err := budgetFor(b, warm-uint64(k)*500, window)
			if err != nil {
				t.Fatal(err)
			}
			if e.prog != progs[i] {
				t.Fatalf("%s: budgets hold different programs", b.Name)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	entries := int64(budgetsPerBench * len(benches))
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / entries
	t.Logf("%d benchmarks, %d new entries: %d bytes retained per entry", len(benches), entries, per)
	if len(benches) != 15 {
		t.Fatalf("the mixes name %d benchmarks, want 15", len(benches))
	}
	if per > 16<<10 {
		t.Fatalf("each new (benchmark, budget) retains %d bytes, want at most 16 KiB", per)
	}
}

func TestRunMix(t *testing.T) {
	r, err := RunMix(workload.Mixes()[0], SchemeBase, pipeline.PolicyICOUNT, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 4 {
		t.Fatal("mix benchmarks not echoed")
	}
}

func TestCombinedTagAccuracyBounds(t *testing.T) {
	r, err := Run(quickCfg(SchemeBase))
	if err != nil {
		t.Fatal(err)
	}
	c := r.CombinedTagAccuracy()
	if c <= 0 || c > 1 {
		t.Fatalf("combined accuracy %v", c)
	}
	if c > r.CommittedTagAccuracy {
		t.Fatalf("combined %v above committed %v (squashed can only hurt)", c, r.CommittedTagAccuracy)
	}
}
