package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"visasim/internal/harness"
)

// op is one timed sweep: a cold sweep new to every cache, or a warm sweep
// that exactly repeats an earlier cold one.
type op struct {
	warm    bool
	sweep   int // index into plan.sweeps
	dur     time.Duration
	cpu     time.Duration // process CPU time over the call
	commits uint64
	svc     counters // service counter deltas (service-small only)
}

// cell is one freshly simulated cell's cost record.
type cell struct {
	mix, scheme     string
	warmup          uint64
	cycles, skipped uint64
	commits         uint64
	stats           harness.CellStats
}

// pass is a closed-loop sequence of cold+warm pairs with one client.
type pass struct {
	ops       []op
	cells     []cell // fresh simulations, for per-layer sums
	colds     []int  // plan sweep indexes of this pass's cold sweeps
	attempted int    // cells attempted across all ops
	failed    []string
	// sample holds the results of the pass's first cold sweep, for the
	// service-small parity check against a local run.
	sample harness.Results
}

// passOpts describes a pass: which cold sweeps it issues and what it
// records beside the timings.
type passOpts struct {
	from    int           // first plan sweep this pass uses
	pairs   int           // cold+warm pairs to issue
	limit   time.Duration // stop starting pairs after this much wall time
	tr      *tracer       // nil when untraced
	profDir string        // per-sweep CPU profiles (local traced passes)
}

func runPass(t target, p *plan, d digests, o passOpts) *pass {
	ps := &pass{}
	cl, _ := t.(*cluster)
	begin := time.Now()
	// The pool bounds the pairs too: a run that would reuse a budget
	// stops early instead of issuing a sweep that is not cold.
	for i := o.from; i < len(p.sweeps) && i-o.from < o.pairs; i++ {
		if time.Since(begin) >= o.limit {
			break // a host far slower than nominal: keep within the exit deadline
		}
		ps.colds = append(ps.colds, i)
		for _, warm := range []bool{false, true} {
			idx := i
			if warm {
				idx = p.warmOf[i]
			}
			prof := ""
			if o.profDir != "" {
				prof = filepath.Join(o.profDir, fmt.Sprintf("op%04d.pprof", len(ps.ops)))
			}
			ps.do(t, cl, p, d, idx, warm, prof, o.tr)
		}
	}
	return ps
}

// do issues one sweep, times it, and checks its results.
func (ps *pass) do(t target, cl *cluster, p *plan, d digests, idx int, warm bool, prof string, tr *tracer) {
	sw := p.sweeps[idx]
	var before counters
	if cl != nil {
		before = cl.counters()
	}
	cpu0 := cpuTime()
	start := time.Now()
	res, stats, err := t.sweep(sw.cells, prof)
	dur := time.Since(start)
	o := op{warm: warm, sweep: idx, dur: dur, cpu: cpuTime() - cpu0}
	if cl != nil {
		o.svc = cl.counters().sub(before)
	}
	ps.attempted += len(sw.cells)
	if err != nil {
		// A sweep that errors fails every cell it held.
		for _, c := range sw.cells {
			ps.failed = append(ps.failed, c.Key+": "+err.Error())
		}
		ps.ops = append(ps.ops, o)
		return
	}
	for _, k := range d.checkSweep(sw, res) {
		ps.failed = append(ps.failed, k+": result differs from its reference digest")
	}
	for _, c := range sw.cells {
		if r := res[c.Key]; r != nil {
			o.commits += r.TotalCommits()
		}
	}
	ps.ops = append(ps.ops, o)
	if ps.sample == nil && !warm {
		ps.sample = res
	}
	// Warm service sweeps are cache hits whose stats echo the original
	// run; every other sweep simulated each of its cells afresh.
	fresh := !(warm && cl != nil)
	kind := "sweep.cold"
	if warm {
		kind = "sweep.warm"
	}
	root := tr.add(0, kind, start, start.Add(dur), map[string]string{"budget": fmt.Sprint(sw.budget)})
	call := "harness.RunStats"
	if cl != nil {
		call = "dispatch.Coordinator.RunStats"
	}
	parent := tr.add(root, call, start, start.Add(dur), nil)
	for _, c := range sw.cells {
		st, r := stats[c.Key], res[c.Key]
		if !fresh || r == nil {
			continue
		}
		mix, _, _ := strings.Cut(c.Key, "/")
		warmup := c.Cfg.MaxInstructions / 4 // core's default warmup
		ps.cells = append(ps.cells, cell{
			mix: mix, scheme: c.Cfg.Scheme.String(),
			warmup: warmup, cycles: r.Cycles, skipped: r.SkippedCycles,
			commits: r.TotalCommits(), stats: st,
		})
		// Cell start times are not observable from outside the harness:
		// cell spans carry measured durations anchored at the sweep start.
		cs := tr.add(parent, "cell", start, start.Add(secs(st.Seconds)),
			map[string]string{"key": c.Key, "timing": "duration-only"})
		setup := secs(st.Seconds - st.SimSeconds)
		tr.add(cs, "core.setup", start, start.Add(setup), nil)
		tr.add(cs, "pipeline.loop", start.Add(setup), start.Add(setup+secs(st.SimSeconds)), nil)
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// wall is the summed duration of the pass's sweep calls: the workload's
// wall time, excluding the benchmark's own checking between calls.
func (ps *pass) wall(warm ...bool) time.Duration {
	var w time.Duration
	for _, o := range ps.ops {
		if len(warm) == 0 || o.warm == warm[0] {
			w += o.dur
		}
	}
	return w
}

// latenciesMS returns the cold or warm sweep latencies in milliseconds.
func (ps *pass) latenciesMS(warm bool) []float64 {
	var xs []float64
	for _, o := range ps.ops {
		if o.warm == warm {
			xs = append(xs, float64(o.dur)/float64(time.Millisecond))
		}
	}
	return xs
}
