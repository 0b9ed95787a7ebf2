package core

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"visasim/internal/config"
	"visasim/internal/pipeline"
)

// TestRecycledBuffersKeepCellsIndependent runs cell A, then cell B on a
// machine of another geometry (smaller L1D, L2, IQ and predictor tables, two
// threads), then A again, and then A and B at once on two goroutines. Each
// run draws the cache lines, predictor tables, stream rings, executor state
// and uop free lists the earlier runs recycled, so a buffer handed out
// stale, or at another geometry's size, would change a result's bytes.
func TestRecycledBuffersKeepCellsIndependent(t *testing.T) {
	small := config.Default()
	small.L1D.SizeBytes = 16 << 10
	small.L2.SizeBytes = 512 << 10
	small.IQSize = 48
	small.Branch.GshareEntries = 1024
	small.Branch.BTBEntries = 512
	a := Config{
		Benchmarks:      []string{"mcf", "gcc", "vpr", "swim"},
		Scheme:          SchemeVISA,
		Policy:          pipeline.PolicyICOUNT,
		MaxInstructions: 8_000,
	}
	b := Config{
		Machine:         &small,
		Benchmarks:      []string{"equake", "bzip2"},
		Scheme:          SchemeVISAOpt2,
		Policy:          pipeline.PolicyFLUSH,
		MaxInstructions: 6_000,
	}
	run := func(c Config) []byte {
		res, err := Run(c)
		if err != nil {
			t.Error(err)
			return nil
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Error(err)
		}
		return blob
	}

	wantA := run(a)
	wantB := run(b)
	if got := run(a); !bytes.Equal(got, wantA) {
		t.Fatal("cell A's result changed after cell B ran on another geometry")
	}
	var gotA, gotB []byte
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotA = run(a) }()
	go func() { defer wg.Done(); gotB = run(b) }()
	wg.Wait()
	if !bytes.Equal(gotA, wantA) {
		t.Fatal("cell A's result changed when it ran beside cell B")
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatal("cell B's result changed when it ran beside cell A")
	}
}
