package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"visasim/internal/ace"
	"visasim/internal/pipeline"
	"visasim/internal/program"
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
	b := workload.MustGet("twolf")
	p1, err := ProfileFor(b, 5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ProfileFor(b, 5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cache returned distinct profiles for the same key")
	}
	p3, err := ProfileFor(b, 6000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p3 {
		t.Fatal("different budgets shared a profile")
	}
}

var concurrentRuns atomic.Int32

// TestProfileForConcurrent has several goroutines ask for one benchmark at
// different lengths at once — some sharing a key, some forcing the shared
// analysis to grow — and checks each profile and tagged program against a
// sequential run.
func TestProfileForConcurrent(t *testing.T) {
	// A window no other test or earlier run (-count) used, so every key
	// and the shared analysis start cold.
	window := 700 + int(concurrentRuns.Add(1))
	b := workload.MustGet("gcc")
	lengths := []uint64{3000, 64, 9000, 3000, 1, 5000, 9000, 700}

	type out struct {
		prog *program.Program
		prof *ace.Profile
		err  error
	}
	got := make([]out, len(lengths))
	var wg sync.WaitGroup
	for i, n := range lengths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, prof, err := taggedProgramFor(b, n, window)
			got[i] = out{prog, prof, err}
		}()
	}
	wg.Wait()

	for i, n := range lengths {
		if got[i].err != nil {
			t.Fatalf("n=%d: %v", n, got[i].err)
		}
		prog, err := b.Generate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := ace.Run(prog, b.Params.Seed, 0, n, window)
		if err != nil {
			t.Fatal(err)
		}
		want.Apply(prog)
		// Bits compare by value: a derived profile shares a longer
		// analysis's storage, so its last word may carry later bits.
		gp, wp := *got[i].prof, *want
		if !reflect.DeepEqual(gp.Bits.Words(), wp.Bits.Words()) || gp.Bits.Len() != wp.Bits.Len() {
			t.Fatalf("n=%d: concurrent profile's bits differ from a sequential one's", n)
		}
		gp.Bits, wp.Bits = nil, nil
		if !reflect.DeepEqual(gp, wp) {
			t.Fatalf("n=%d: concurrent profile differs from a sequential one", n)
		}
		if !reflect.DeepEqual(got[i].prog, prog) {
			t.Fatalf("n=%d: concurrent tagged program differs from a sequential one", n)
		}
		if prof, err := ProfileFor(b, n, window); err != nil || prof != got[i].prof {
			t.Fatalf("n=%d: ProfileFor does not return the tagged program's profile", n)
		}
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
