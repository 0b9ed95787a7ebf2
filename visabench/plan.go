package main

import (
	"fmt"
	"math/rand"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/workload"
)

// spec describes one workload: which cells a sweep holds and the finite pool
// of instruction budgets its cold sweeps draw from. Every cell of the pool
// has a recorded result digest, so the output check covers any seed.
type spec struct {
	name    string
	schemes []core.Scheme
	// baseBudget is the smallest committed-instruction budget in the pool;
	// variant v uses baseBudget+v. Distinct budgets give distinct content
	// addresses and distinct ACE-profile keys, so a cold sweep is new to
	// every cache in the process.
	baseBudget uint64
	pool       int
	service    bool
	// pairSeconds is the nominal wall time of one cold+warm pair on a
	// 2-core host. A run issues the fixed number of pairs that fit the run
	// time at that pace, so every run of a workload measures the same work
	// and its deterministic counts repeat exactly for a given seed.
	pairSeconds float64
}

// specs are the benchmark's workloads. Each stresses different layers:
// the pipeline loop, the Opt1/Opt2/DVM controllers, and the service tier.
// README.md records why each was chosen.
var specs = []spec{
	{
		name:        "sweep-open",
		schemes:     []core.Scheme{core.SchemeBase, core.SchemeVISA},
		baseBudget:  core.DefaultInstructions,
		pool:        24,
		pairSeconds: 10.5,
	},
	{
		name:        "sweep-controlled",
		schemes:     []core.Scheme{core.SchemeVISAOpt1, core.SchemeVISAOpt2, core.SchemeDVM},
		baseBudget:  core.DefaultInstructions,
		pool:        24,
		pairSeconds: 16,
	},
	{
		name:       "service-small",
		schemes:    []core.Scheme{core.SchemeBase, core.SchemeVISA},
		baseBudget: 4000,
		pool:       320,
		service:    true,
		// A pair takes about 0.2 s on 2 cores. Each cold sweep caches new
		// programs and ACE profiles for the rest of the process, so pacing
		// at 0.3 s keeps a 30 s run near 600 MB.
		pairSeconds: 0.3,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// dvmTargets are the fixed absolute IQ-AVF targets of the DVM cells: half of
// each mix's base-scheme MaxIQAVF at 400k instructions under ICOUNT (the
// middle of the paper's Figure 8 fractions), rounded. Fixing them removes
// the baseline pass the paper's figures run first.
var dvmTargets = map[string]float64{
	"CPU-A": 0.147, "CPU-B": 0.069, "CPU-C": 0.129,
	"MIX-A": 0.189, "MIX-B": 0.148, "MIX-C": 0.123,
	"MEM-A": 0.285, "MEM-B": 0.241, "MEM-C": 0.267,
}

// budget returns the instruction budget of pool variant v.
func (s spec) budget(v int) uint64 { return s.baseBudget + uint64(v) }

// cells returns one sweep: every Table 3 mix × the spec's schemes at the
// given budget, under ICOUNT. The mixes go in reverse Table 3 order, so the
// slowest (memory-bound) cells start first and short CPU cells fill the
// sweep's tail, which keeps the workers' idle time at the end small.
func (s spec) cells(budget uint64) []harness.Cell {
	var out []harness.Cell
	mixes := workload.Mixes()
	for i := len(mixes) - 1; i >= 0; i-- {
		m := mixes[i]
		for _, sc := range s.schemes {
			cfg := core.Config{
				Benchmarks:      m.Benchmarks[:],
				Scheme:          sc,
				Policy:          pipeline.PolicyICOUNT,
				MaxInstructions: budget,
			}
			if sc == core.SchemeDVM {
				cfg.DVMTarget = dvmTargets[m.Name]
			}
			out = append(out, harness.Cell{
				Key: fmt.Sprintf("%s/%s/n%d", m.Name, sc, budget),
				Cfg: cfg,
			})
		}
	}
	return out
}

// sweep is one cold sweep of a plan: its cells and their content addresses.
type sweep struct {
	budget uint64
	cells  []harness.Cell
	hashes []string
}

// plan is a run's seeded input: the cold sweeps in the order the run issues
// them, and for each cold sweep i the earlier cold sweep warmOf[i] that the
// warm sweep following it repeats.
type plan struct {
	spec   spec
	seed   int64
	sweeps []sweep
	warmOf []int
}

// newPlan draws the run's inputs from the seed: a permutation of the budget
// pool, and which earlier cold sweep each warm sweep repeats.
func newPlan(s spec, seed int64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{spec: s, seed: seed}
	for _, v := range rng.Perm(s.pool) {
		sw := sweep{budget: s.budget(v), cells: s.cells(s.budget(v))}
		for _, c := range sw.cells {
			h, err := c.Cfg.Hash()
			if err != nil {
				return nil, fmt.Errorf("cell %s: %w", c.Key, err)
			}
			sw.hashes = append(sw.hashes, h)
		}
		p.sweeps = append(p.sweeps, sw)
	}
	for i := range p.sweeps {
		p.warmOf = append(p.warmOf, rng.Intn(i+1))
	}
	return p, nil
}

// pairs is the fixed number of cold+warm pairs a pass issues: the count a
// 2-core host fits in the run time, at least one.
func (s spec) pairs(runSeconds int) int {
	n := int(float64(runSeconds)/s.pairSeconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
