package main

import (
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names and units (a self-test keeps them in step).
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"peak_rss_mb", "MiB"},
	{"cold_sweep_p50_ms", "ms"},
	{"cold_sweep_tail_ms", "ms"},
	{"warm_sweep_p50_ms", "ms"},
	{"warm_sweep_tail_ms", "ms"},
}

// categories and schemeSuffixes name the per-category and per-scheme
// breakdowns of pipeline.ns_per_instr.
var (
	categories     = []string{"CPU", "MIX", "MEM"}
	schemeSuffixes = []string{"base", "visa", "visa-opt1", "visa-opt2", "dvm"}
)

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"workload.generate_s", "s"},
		{"ace.profile_s", "s"},
		{"ace.ns_per_instr", "ns/instr"},
		{"core.setup_s", "s"},
		{"core.setup_frac", "fraction"},
		{"pipeline.loop_s", "s"},
		{"pipeline.ns_per_instr", "ns/instr"},
	}
	for _, c := range categories {
		defs = append(defs, metricDef{"pipeline.ns_per_instr." + c, "ns/instr"})
	}
	for _, s := range schemeSuffixes {
		defs = append(defs, metricDef{"pipeline.ns_per_instr." + s, "ns/instr"})
	}
	defs = append(defs,
		metricDef{"pipeline.cycles", "count"},
		metricDef{"pipeline.skipped_frac", "fraction"},
	)
	for _, m := range sortedKeys(stageFuncs) {
		defs = append(defs, metricDef{m, "fraction"})
	}
	for _, m := range sortedKeys(pkgShares) {
		defs = append(defs, metricDef{m, "fraction"})
	}
	return append(defs,
		metricDef{"runtime.gc_share", "fraction"},
		metricDef{"runtime.alloc_mb", "MiB"},
		metricDef{"harness.busy_frac", "fraction"},
		metricDef{"server.direct_warm_sweep_ms", "ms"},
		metricDef{"dispatch.overhead_ms", "ms"},
		metricDef{"server.cache_hit_frac", "fraction"},
		metricDef{"server.cache_hit_frac.cold", "fraction"},
		metricDef{"server.cache_hit_frac.warm", "fraction"},
		metricDef{"service.warm_cpu_ms", "ms"},
		metricDef{"dispatch.attempts_per_cell", "count"},
		metricDef{"trace.overhead_frac", "fraction"},
	)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// value is one metric as the result line prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is one end-to-end metric in the run record: its value plus the
// spread of the within-run samples it came from.
type detail struct {
	value
	summary
	// Percentile is the tail percentile a *_tail_ms metric reports.
	Percentile int `json:"percentile,omitempty"`
}

// endToEnd computes the end-to-end metrics of a pass.
func endToEnd(ps *pass, setup []float64) map[string]detail {
	out := map[string]detail{}
	put := func(name string, v float64, s summary) {
		out[name] = detail{value: value{v, unitOf(endToEndDefs, name)}, summary: s}
	}
	put("setup_s", median(setup), summarize(setup))

	var commits uint64
	var rates []float64
	for _, o := range ps.ops {
		commits += o.commits
		rates = append(rates, float64(o.commits)/o.dur.Seconds()/1e6)
	}
	put("sim_minstr_per_s", float64(commits)/ps.wall().Seconds()/1e6, summarize(rates))

	rss := peakRSSMB()
	put("peak_rss_mb", rss, summarize([]float64{rss}))

	for _, kind := range []string{"cold", "warm"} {
		lat := ps.latenciesMS(kind == "warm")
		put(kind+"_sweep_p50_ms", median(lat), summarize(lat))
		p, v := tail(lat)
		d := detail{value: value{v, "ms"}, summary: summarize(lat), Percentile: p}
		out[kind+"_sweep_tail_ms"] = d
	}
	return out
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// layerInputs gathers what the traced run measured beside its traced pass.
type layerInputs struct {
	ref, traced   *pass
	service       bool
	simWorkers    int
	shares        map[string]float64
	allocMB       float64
	generateS     float64
	profileS      float64
	profiledInstr uint64
	directMS      []float64
}

// perLayer computes the per-layer metrics. A metric whose layer is not on
// the workload's path reads 0.
func perLayer(in layerInputs) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayerDefs() {
		out[d.name] = 0
	}
	tp := in.traced
	out["workload.generate_s"] = in.generateS
	out["ace.profile_s"] = in.profileS
	out["ace.ns_per_instr"] = ratio(in.profileS*1e9, float64(in.profiledInstr))

	var cellSecs, simSecs, cycles, skipped float64
	loopSecs := map[string]float64{}
	loopInstr := map[string]float64{}
	for _, c := range tp.cells {
		cellSecs += c.stats.Seconds
		simSecs += c.stats.SimSeconds
		cycles += float64(c.cycles)
		skipped += float64(c.skipped)
		// The loop timer covers warmup, so its instructions count too.
		instr := float64(c.commits + c.warmup)
		for _, k := range []string{"", "." + c.mix[:3], "." + strings.ReplaceAll(c.scheme, "+", "-")} {
			loopSecs[k] += c.stats.SimSeconds
			loopInstr[k] += instr
		}
	}
	out["core.setup_s"] = cellSecs - simSecs
	out["core.setup_frac"] = ratio(cellSecs-simSecs, cellSecs)
	out["pipeline.loop_s"] = simSecs
	for k, s := range loopSecs {
		out["pipeline.ns_per_instr"+k] = ratio(s*1e9, loopInstr[k])
	}
	out["pipeline.cycles"] = cycles
	out["pipeline.skipped_frac"] = ratio(skipped, cycles)

	for k, v := range in.shares {
		out[k] = v
	}
	out["runtime.alloc_mb"] = in.allocMB

	// Busy time is measured against the wall time of the sweeps that
	// simulated: every local sweep, but only cold service sweeps.
	simWall := tp.wall()
	if in.service {
		simWall = tp.wall(false)
	}
	out["harness.busy_frac"] = ratio(cellSecs, float64(in.simWorkers)*simWall.Seconds())

	var warmCPU []float64
	var hits, resolved, dispatched, accepted [2]float64 // [cold, warm]
	for _, o := range tp.ops {
		w := 0
		if o.warm {
			w = 1
			warmCPU = append(warmCPU, float64(o.cpu)/float64(time.Millisecond))
		}
		hits[w] += float64(o.svc.hits)
		resolved[w] += float64(o.svc.resolved)
		dispatched[w] += float64(o.svc.dispatched)
		accepted[w] += float64(o.svc.cells)
	}
	out["service.warm_cpu_ms"] = median(warmCPU)
	if in.service {
		direct := median(in.directMS)
		out["server.direct_warm_sweep_ms"] = direct
		out["dispatch.overhead_ms"] = median(tp.latenciesMS(true)) - direct
		out["server.cache_hit_frac"] = ratio(hits[0]+hits[1], resolved[0]+resolved[1])
		out["server.cache_hit_frac.cold"] = ratio(hits[0], resolved[0])
		out["server.cache_hit_frac.warm"] = ratio(hits[1], resolved[1])
		out["dispatch.attempts_per_cell"] = ratio(dispatched[0]+dispatched[1], accepted[0]+accepted[1])
	}
	out["trace.overhead_frac"] = tp.wall().Seconds()/in.ref.wall().Seconds() - 1
	return out
}
