package ace

import (
	"reflect"
	"testing"

	"visasim/internal/program"
	"visasim/internal/trace"
	"visasim/internal/workload"
)

// singlePass is the reference analysis the Profiler must reproduce: one
// Analyzer streams n + window instructions and attributes each instruction
// of the prefix to its static instruction as it settles. LateMarks is read
// when the stream stops, before any flush.
func singlePass(prog *program.Program, seed uint64, thread int, n uint64, window int) *Profile {
	p := &Profile{
		Bits:         trace.NewBitSet(n),
		Tag:          make([]bool, prog.Len()),
		Instances:    make([]uint64, prog.Len()),
		ACEInstances: make([]uint64, prog.Len()),
	}
	staticIdx := make([]int, window)
	an := New(window, func(seq uint64, isACE bool) {
		if seq >= n {
			return
		}
		p.Bits.Set(seq, isACE)
		si := staticIdx[seq%uint64(window)]
		p.Instances[si]++
		if isACE {
			p.ACEInstances[si]++
			p.Tag[si] = true
			p.DynACE++
		}
		p.DynInstrs++
	})
	exec := trace.NewExecutor(prog, seed, thread)
	var d trace.DynInst
	for i := uint64(0); i < n+uint64(window); i++ {
		exec.Next(&d)
		// Retire first: it may settle seq-window, whose slot this
		// instruction is about to overwrite.
		an.Retire(&d)
		staticIdx[d.Seq%uint64(window)] = prog.IndexOf(d.Static.PC)
	}
	p.LateMarks = an.LateMarks()
	return p
}

// sameProfile reports whether two profiles agree on every field. Bits are
// compared by value: a derived profile shares a longer analysis's storage,
// so its last word may carry bits past its length.
func sameProfile(a, b *Profile) bool {
	if a.Bits.Len() != b.Bits.Len() || !reflect.DeepEqual(a.Bits.Words(), b.Bits.Words()) {
		return false
	}
	x, y := *a, *b
	x.Bits, y.Bits = nil, nil
	return reflect.DeepEqual(x, y)
}

// table3Benchmarks returns the distinct benchmarks of Table 3's mixes.
func table3Benchmarks() []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range workload.Mixes() {
		for _, name := range m.Benchmarks {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return out
}

// TestProfilerMatchesSinglePass asks one Profiler per benchmark for lengths
// in scrambled order — around a bit-set word boundary, then one past the
// held horizon, then a shorter one — and checks every field of every
// profile against a single-pass analysis of that length.
func TestProfilerMatchesSinglePass(t *testing.T) {
	const window = 1000
	steps := []struct {
		n       uint64
		newPass bool // whether this request runs a new analysis
	}{
		{1, true}, {63, false}, {64, false}, {65, false},
		{2500, true}, // past the first horizon (one window)
		{700, false}, // shorter: served from the held prefix
	}
	benches := table3Benchmarks()
	if len(benches) != 15 {
		t.Fatalf("Table 3 mixes name %d distinct benchmarks, want 15", len(benches))
	}
	for _, name := range benches {
		b := workload.MustGet(name)
		prog, err := b.Generate()
		if err != nil {
			t.Fatal(err)
		}
		pr := NewProfiler(b.Params.Seed, 0, window)
		for _, st := range steps {
			held := pr.pass
			got, err := pr.Profile(prog, st.n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, st.n, err)
			}
			if want := singlePass(prog, b.Params.Seed, 0, st.n, window); !sameProfile(got, want) {
				t.Fatalf("%s n=%d: profile differs from a single pass\n got %+v\nwant %+v", name, st.n, got, want)
			}
			if newPass := pr.pass != held; newPass != st.newPass {
				t.Fatalf("%s n=%d: ran a new analysis = %v, want %v", name, st.n, newPass, st.newPass)
			}
		}
	}
}

// TestLateMarksStopAtStreamEnd pins LateMarks' definition: the marks raised
// while streaming the profile's n + window instructions. A flush of the
// lookahead tail raises more, which stopping the stream causes and which
// are not windowing error; they must not count.
func TestLateMarksStopAtStreamEnd(t *testing.T) {
	const n, window = 20_000, 2000
	b := workload.MustGet("perlbmk")
	prog, err := b.Generate()
	if err != nil {
		t.Fatal(err)
	}
	an := New(window, func(uint64, bool) {})
	exec := trace.NewExecutor(prog, b.Params.Seed, 0)
	var d trace.DynInst
	for i := 0; i < n+window; i++ {
		exec.Next(&d)
		an.Retire(&d)
	}
	streamed := an.LateMarks()
	an.Flush()
	flushed := an.LateMarks()
	if flushed <= streamed {
		t.Fatalf("flush raised no late marks (%d before, %d after); the test no longer tells the definitions apart", streamed, flushed)
	}
	// A longer shared pass must not leak its later marks into a shorter
	// profile either.
	pr := NewProfiler(b.Params.Seed, 0, window)
	if _, err := pr.Profile(prog, 3*n); err != nil {
		t.Fatal(err)
	}
	p, err := pr.Profile(prog, n)
	if err != nil {
		t.Fatal(err)
	}
	if p.LateMarks != streamed {
		t.Fatalf("LateMarks = %d, want the %d raised while streaming (a flush would give %d)", p.LateMarks, streamed, flushed)
	}
}

func TestProfilerRejectsOtherProgram(t *testing.T) {
	gcc, _ := workload.MustGet("gcc").Generate()
	mcf, _ := workload.MustGet("mcf").Generate()
	pr := NewProfiler(1, 0, 500)
	if _, err := pr.Profile(gcc, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Profile(mcf, 100); err == nil {
		t.Fatal("profiler of gcc profiled mcf")
	}
}
