package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"visasim/internal/harness"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n, wantP int
		wantV    float64
	}{
		{100, 90, 90}, // 10 samples above the 90th value
		{25, 60, 15},  // ceil(0.60×25) = 15, 10 above it
		{20, 50, 10},  // the median is the highest qualifying percentile
		{19, 100, 19}, // too few samples: the maximum, reported as p100
		{1, 100, 1},
	} {
		p, v := tail(seq(tc.n))
		if p != tc.wantP || v != tc.wantV {
			t.Errorf("tail(n=%d) = p%d %v, want p%d %v", tc.n, p, v, tc.wantP, tc.wantV)
		}
		if p < 100 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("tail(n=%d): only %d samples beyond p%d", tc.n, beyond, p)
			}
		}
	}
}

func TestOutputCheckFlagsPerturbedCell(t *testing.T) {
	s, _ := specByName("service-small")
	d, err := loadDigests(s.name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	sw := p.sweeps[0]
	res, err := harness.Run(sw.cells, harness.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.checkSweep(sw, res); len(bad) != 0 {
		t.Fatalf("unperturbed sweep flagged: %v", bad)
	}
	victim := sw.cells[3].Key
	res[victim].Cycles++
	if bad := d.checkSweep(sw, res); !reflect.DeepEqual(bad, []string{victim}) {
		t.Fatalf("perturbed %s, check flagged %v", victim, bad)
	}
	delete(res, victim)
	if bad := d.checkSweep(sw, res); !reflect.DeepEqual(bad, []string{victim}) {
		t.Fatalf("dropped %s, check flagged %v", victim, bad)
	}
}

func TestSameSeedSameCells(t *testing.T) {
	for _, s := range specs {
		a, err := newPlan(s, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newPlan(s, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.sweeps, b.sweeps) || !reflect.DeepEqual(a.warmOf, b.warmOf) {
			t.Errorf("%s: seed 42 gave two different plans", s.name)
		}
	}
}

func TestSeedChangesServiceAddresses(t *testing.T) {
	s, _ := specByName("service-small")
	a, err := newPlan(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPlan(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, h := range a.sweeps[0].hashes {
		seen[h] = true
	}
	for _, h := range b.sweeps[0].hashes {
		if seen[h] {
			t.Fatalf("seeds 1 and 2 share content address %s in their first cold sweep", h)
		}
	}
	for i, sw := range a.sweeps {
		for j, h := range sw.hashes {
			if i > 0 && h == a.sweeps[0].hashes[j] {
				t.Fatalf("cold sweeps 0 and %d share a content address", i)
			}
		}
	}
}

func TestDigestsCoverEveryPooledCell(t *testing.T) {
	for _, s := range specs {
		d, err := loadDigests(s.name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := newPlan(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range p.sweeps {
			for i, h := range sw.hashes {
				if d[h[:keyLen]] == "" {
					t.Fatalf("%s: no digest for %s", s.name, sw.cells[i].Key)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// names and units in step with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if !reflect.DeepEqual(wl, want) {
		t.Errorf("workloads %v, benchmark runs %v", wl, want)
	}
	for _, tc := range []struct {
		name string
		got  []m
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEndDefs}, {"per_layer", bj.PerLayer, perLayerDefs()}} {
		var w []m
		for _, d := range tc.defs {
			w = append(w, m{d.name, d.unit})
		}
		if !reflect.DeepEqual(tc.got, w) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nbenchmark prints:\n%v", tc.name, tc.got, w)
		}
	}
}

func TestSharesFromTraces(t *testing.T) {
	text := []byte(`File: visabench
Type: cpu
-----------+-------------------------------------------------------
       cell:  [CPU-A/base/n400000]
      30ms   visasim/internal/uarch.(*IQ).Insert
             visasim/internal/pipeline.(*Processor).dispatch
             visasim/internal/pipeline.(*Processor).Step
             visasim/internal/pipeline.(*Processor).Run
-----------+-------------------------------------------------------
      10ms   visasim/internal/pipeline.(*Processor).fetch
             visasim/internal/pipeline.(*Processor).Step
             visasim/internal/pipeline.(*Processor).Run
-----------+-------------------------------------------------------
      40ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   encoding/json.(*decodeState).object
             net/http.(*conn).serve
-----------+-------------------------------------------------------
`)
	got, err := sharesFromTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"pipeline.dispatch_share": 0.75,
		"pipeline.fetch_share":    0.25,
		"pipeline.issue_share":    0,
		"uarch.cpu_share":         0.3,
		"json.cpu_share":          0.2,
		"nethttp.cpu_share":       0,
		"runtime.gc_share":        0.4,
	} {
		if d := got[k] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], want)
		}
	}
}
