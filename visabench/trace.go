package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// span is one traced interval at a layer boundary, recorded by the
// benchmark around its calls into the layer.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"` // 0 for a root span
	Name   string            `json:"name"`
	Start  float64           `json:"start_s"` // seconds since the run began
	End    float64           `json:"end_s"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so untraced runs pay no cost.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
		Attrs: attrs,
	})
	return id
}

// end sets the end of a span opened before its children were known.
func (t *tracer) end(id int, end time.Time) {
	if t != nil && id > 0 {
		t.spans[id-1].End = end.Sub(t.t0).Seconds()
	}
}

func (t *tracer) write(path string) error {
	blob, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// Function names the CPU-profile shares key on.
const (
	pipelineRun = "visasim/internal/pipeline.(*Processor).Run"
	procPrefix  = "visasim/internal/pipeline.(*Processor)."
)

// stageFuncs maps each loop-stage metric to its pipeline method.
var stageFuncs = map[string]string{
	"pipeline.fetch_share":    procPrefix + "fetch",
	"pipeline.dispatch_share": procPrefix + "dispatch",
	"pipeline.issue_share":    procPrefix + "issue",
	"pipeline.complete_share": procPrefix + "complete",
	"pipeline.commit_share":   procPrefix + "commit",
	"pipeline.skip_share":     procPrefix + "skipAhead",
}

// pkgShares maps each per-package metric to the package whose functions'
// flat (leaf) samples it counts.
var pkgShares = map[string]string{
	"ace.cpu_share":     "visasim/internal/ace",
	"uarch.cpu_share":   "visasim/internal/uarch",
	"cache.cpu_share":   "visasim/internal/cache",
	"alloc.cpu_share":   "visasim/internal/alloc",
	"dvm.cpu_share":     "visasim/internal/dvm",
	"json.cpu_share":    "encoding/json",
	"nethttp.cpu_share": "net/http",
}

// gcFuncs are the runtime entry points of garbage-collection work; a sample
// with any of them on its stack counts toward runtime.gc_share.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
}

// profileShares runs `go tool pprof -traces` over the CPU profiles and
// derives the stage, package and GC shares from the sample stacks.
func profileShares(files []string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return sharesFromTraces(out)
}

// sharesFromTraces parses pprof's -traces text: blocks separated by
// "-----------+---" lines, each a sample value on the leaf frame's line
// followed by the caller frames, root last, one per line.
func sharesFromTraces(text []byte) (map[string]float64, error) {
	var total, runTotal float64
	stage := map[string]float64{}
	pkg := map[string]float64{}
	var gc float64

	var value float64
	var frames []string
	flush := func() {
		if len(frames) == 0 {
			return
		}
		total += value
		on := map[string]bool{}
		for _, f := range frames {
			on[f] = true
		}
		if on[pipelineRun] {
			runTotal += value
			for m, fn := range stageFuncs {
				if on[fn] {
					stage[m] += value
				}
			}
		}
		leaf := packageOf(frames[0])
		for m, p := range pkgShares {
			if leaf == p {
				pkg[m] += value
			}
		}
		for f := range gcFuncs {
			if on[f] {
				gc += value
				break
			}
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // blank or a label line ("cell:[...]")
		}
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) >= 2 {
			value = d.Seconds()
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile has no samples")
	}
	out := map[string]float64{}
	for m := range stageFuncs {
		out[m] = ratio(stage[m], runTotal)
	}
	for m := range pkgShares {
		out[m] = pkg[m] / total
	}
	out["runtime.gc_share"] = gc / total
	return out, nil
}

// packageOf returns the import path of a function name such as
// "visasim/internal/uarch.(*IQ).Insert" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
