package ace

import (
	"bytes"
	"reflect"
	"testing"

	"visasim/internal/trace"
	"visasim/internal/workload"
)

// fuzzSeedProfile builds a small but fully-populated profile for the fuzz
// corpus.
func fuzzSeedProfile() *Profile {
	bits := trace.NewBitSet(130)
	for i := uint64(0); i < 130; i += 3 {
		bits.Set(i, true)
	}
	return &Profile{
		Bits:         bits,
		Tag:          []bool{true, false, true, true},
		Instances:    []uint64{40, 30, 40, 20},
		ACEInstances: []uint64{40, 2, 39, 0},
		DynInstrs:    130,
		DynACE:       44,
		LateMarks:    1,
	}
}

// FuzzProfileRoundTrip feeds arbitrary bytes to Load. Load must never panic;
// whenever it accepts an input, saving the decoded profile and loading it
// back must reproduce it exactly — the serialize round-trip property the
// profile cache relies on.
func FuzzProfileRoundTrip(f *testing.F) {
	var seed bytes.Buffer
	if err := fuzzSeedProfile().Save(&seed, "bench", 7, DefaultWindow); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	truncated := seed.Bytes()
	f.Add(truncated[:len(truncated)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data), "bench", 7, 0)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := p.Save(&out, "bench", 7, DefaultWindow); err != nil {
			t.Fatalf("saving an accepted profile: %v", err)
		}
		p2, err := Load(&out, "bench", 7, 0)
		if err != nil {
			t.Fatalf("re-loading a saved profile: %v", err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip changed the profile:\n got %+v\nwant %+v", p2, p)
		}
	})
}

// FuzzProfilerPrefix fuzzes the sequence of lengths one Profiler is asked
// for. Each byte pair is a length of 1..4096 instructions, so a sequence
// mixes requests inside the held horizon with ones that force a new
// analysis. Every profile must equal a single-pass analysis of its length.
func FuzzProfilerPrefix(f *testing.F) {
	const window = 512
	benches := table3Benchmarks()
	f.Add(uint8(0), []byte{0, 0, 0, 62, 0, 63, 0, 64, 9, 195, 2, 187})
	f.Add(uint8(5), []byte{15, 255, 0, 9, 4, 0, 4, 1})
	f.Add(uint8(14), []byte{1, 255, 1, 0, 0, 200})

	f.Fuzz(func(t *testing.T, bench uint8, lengths []byte) {
		if len(lengths) > 16 {
			lengths = lengths[:16] // bound the work per input
		}
		b := workload.MustGet(benches[int(bench)%len(benches)])
		prog, err := b.Generate()
		if err != nil {
			t.Fatal(err)
		}
		pr := NewProfiler(b.Params.Seed, 0, window)
		for i := 0; i+1 < len(lengths); i += 2 {
			n := (uint64(lengths[i])<<8|uint64(lengths[i+1]))%4096 + 1
			got, err := pr.Profile(prog, n)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if want := singlePass(prog, b.Params.Seed, 0, n, window); !sameProfile(got, want) {
				t.Fatalf("n=%d: profile differs from a single pass", n)
			}
		}
	})
}
