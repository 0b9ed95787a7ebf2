package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/server"
	"visasim/internal/store"
)

const testBudget = 6000

func testCfg(bench string, scheme core.Scheme) core.Config {
	return core.Config{
		Benchmarks:      []string{bench},
		Scheme:          scheme,
		Policy:          pipeline.PolicyICOUNT,
		MaxInstructions: testBudget,
	}
}

// newBackend boots one real in-process visasimd backend.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	s := server.New(server.Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return ts
}

func newCoordinator(t *testing.T, opt Options) *Coordinator {
	t.Helper()
	if opt.BaseBackoff == 0 {
		opt.BaseBackoff = time.Millisecond
	}
	if opt.MaxBackoff == 0 {
		opt.MaxBackoff = 5 * time.Millisecond
	}
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// metricsOf decodes the coordinator's expvar map.
func metricsOf(t *testing.T, c *Coordinator) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(c.MetricsVar().String()), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func intMetric(t *testing.T, c *Coordinator, name string) float64 {
	t.Helper()
	v, _ := metricsOf(t, c)[name].(float64)
	return v
}

// backendDispatchCounts returns per-backend dispatch counts keyed by URL.
func backendDispatchCounts(t *testing.T, c *Coordinator) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	per, _ := metricsOf(t, c)["backends"].(map[string]any)
	for url, v := range per {
		row, _ := v.(map[string]any)
		n, _ := row["dispatched"].(float64)
		out[url] = n
	}
	return out
}

// TestClusterParity is the acceptance check (and `make cluster-test`'s
// smoke sweep): a sweep dispatched across two in-process backends returns
// results byte-identical to a local harness.Run, exercises both backends,
// and folds duplicate configs into one dispatch. Run under -race in CI.
func TestClusterParity(t *testing.T) {
	b1, b2 := newBackend(t), newBackend(t)
	c := newCoordinator(t, Options{Backends: []string{b1.URL, b2.URL}})

	cells := []harness.Cell{
		{Key: "gcc-base", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "gcc-visa", Cfg: testCfg("gcc", core.SchemeVISA)},
		{Key: "mcf-base", Cfg: testCfg("mcf", core.SchemeBase)},
		{Key: "mcf-visa", Cfg: testCfg("mcf", core.SchemeVISA)},
		{Key: "gcc-base-dup", Cfg: testCfg("gcc", core.SchemeBase)}, // same hash as gcc-base
	}
	remote, remoteStats, err := c.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := harness.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != len(cells) || len(remoteStats) != len(cells) {
		t.Fatalf("remote returned %d results, %d stats, want %d", len(remote), len(remoteStats), len(cells))
	}
	for key := range local {
		rj, err := json.Marshal(remote[key])
		if err != nil {
			t.Fatal(err)
		}
		lj, err := json.Marshal(local[key])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rj, lj) {
			t.Fatalf("cell %s: dispatched Result differs from local harness.Run", key)
		}
	}

	counts := backendDispatchCounts(t, c)
	for url, n := range counts {
		if n == 0 {
			t.Errorf("backend %s received no dispatches: %v", url, counts)
		}
	}
	if got := intMetric(t, c, "dedup_shares"); got != 1 {
		t.Errorf("dedup_shares = %v, want 1 (gcc-base-dup folds into gcc-base)", got)
	}
	if got := intMetric(t, c, "cells_total"); got != float64(len(cells)) {
		t.Errorf("cells_total = %v, want %d", got, len(cells))
	}
}

// flakyBackend wraps a real backend handler and fails the first `left`
// sweep submissions: errors when hang is false, stalls until client
// disconnect when true. Everything else (healthz, job streams) passes
// through, like a daemon that is reachable but misbehaving on work.
type flakyBackend struct {
	real    http.Handler
	hang    bool
	release chan struct{} // unblocks hung handlers at test teardown
	mu      sync.Mutex
	left    int
	tripped int
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sweeps") {
		f.mu.Lock()
		bad := f.left > 0
		if bad {
			f.left--
			f.tripped++
		}
		f.mu.Unlock()
		if bad {
			if f.hang {
				// Drain the body first: with unread request data the server
				// never notices a client disconnect (its one-byte background
				// read eats a body byte and stops), so r.Context() would only
				// cancel when the handler returns — a deadlock.
				io.Copy(io.Discard, r.Body) //nolint:errcheck
				select {
				case <-r.Context().Done():
				case <-f.release:
				}
				return
			}
			http.Error(w, `{"error":"injected fault"}`, http.StatusInternalServerError)
			return
		}
	}
	f.real.ServeHTTP(w, r)
}

// TestFlakyBackendDoesNotFailSweep is the fault-injection satellite: a
// backend that errors on first contact costs retries/failovers, never the
// sweep, and the results still match a local run byte-for-byte.
func TestFlakyBackendDoesNotFailSweep(t *testing.T) {
	healthySrv := newBackend(t)

	flakySim := server.New(server.Options{})
	flaky := &flakyBackend{real: flakySim.Handler(), left: 2}
	flakyTS := httptest.NewServer(flaky)
	t.Cleanup(func() {
		flakyTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		flakySim.Shutdown(ctx) //nolint:errcheck
	})

	// The flaky backend first so least-loaded tie-breaking sends the first
	// cell straight into the fault.
	c := newCoordinator(t, Options{
		Backends:    []string{flakyTS.URL, healthySrv.URL},
		MaxAttempts: 4,
	})
	cells := []harness.Cell{
		{Key: "a", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "b", Cfg: testCfg("gcc", core.SchemeVISA)},
		{Key: "c", Cfg: testCfg("mcf", core.SchemeBase)},
	}
	remote, err := c.Run(cells, harness.Options{})
	if err != nil {
		t.Fatalf("sweep failed despite a healthy backend: %v", err)
	}
	local, err := harness.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := range local {
		rj, _ := json.Marshal(remote[key])
		lj, _ := json.Marshal(local[key])
		if !bytes.Equal(rj, lj) {
			t.Fatalf("cell %s differs from local run after failover", key)
		}
	}
	if flaky.tripped == 0 {
		t.Fatal("fault was never exercised")
	}
	if got := intMetric(t, c, "retries"); got < 1 {
		t.Fatalf("retries = %v, want >= 1", got)
	}
	if got := intMetric(t, c, "failovers"); got < 1 {
		t.Fatalf("failovers = %v, want >= 1", got)
	}
}

// cutStream wraps a real backend and cuts its first `left` job streams
// just before the end event: the cell events arrive, the outcome never
// does, as when a daemon dies or a proxy drops the connection mid-job.
type cutStream struct {
	real http.Handler
	mu   sync.Mutex
	left int
}

func (c *cutStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/stream") {
		c.mu.Lock()
		cut := c.left > 0
		if cut {
			c.left--
		}
		c.mu.Unlock()
		if cut {
			w = endDropper{w}
		}
	}
	c.real.ServeHTTP(w, r)
}

// endDropper swallows the stream's end event. The daemon writes each
// event with one Write call.
type endDropper struct{ http.ResponseWriter }

func (d endDropper) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte(`{"type":"end"`)) {
		return len(p), nil
	}
	return d.ResponseWriter.Write(p)
}

func (d endDropper) Flush() { d.ResponseWriter.(http.Flusher).Flush() }

// TestCutStreamFailsOver: a backend whose job stream closes before its end
// event costs one failover, not the sweep, and the result is still
// byte-identical to a local run.
func TestCutStreamFailsOver(t *testing.T) {
	cutSim := server.New(server.Options{})
	cut := &cutStream{real: cutSim.Handler(), left: 1}
	cutTS := httptest.NewServer(cut)
	t.Cleanup(func() {
		cutTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		cutSim.Shutdown(ctx) //nolint:errcheck
	})
	// The cutting backend first so least-loaded tie-breaking sends the
	// cell there.
	c := newCoordinator(t, Options{Backends: []string{cutTS.URL, newBackend(t).URL}})
	cells := []harness.Cell{{Key: "x", Cfg: testCfg("gcc", core.SchemeVISA)}}
	remote, err := c.Run(cells, harness.Options{})
	if err != nil {
		t.Fatalf("sweep failed on a cut stream: %v", err)
	}
	if cut.left != 0 {
		t.Fatal("no stream was cut")
	}
	if got := intMetric(t, c, "failovers"); got != 1 {
		t.Fatalf("failovers = %v, want 1", got)
	}
	local, err := harness.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := json.Marshal(remote["x"])
	lj, _ := json.Marshal(local["x"])
	if !bytes.Equal(rj, lj) {
		t.Fatal("result after a cut stream differs from local run")
	}
}

// newFailingBackend boots a stub backend whose every job fails its one
// cell with "simulated failure", reported on the job's stream. A daemon's
// submit validation rejects every config the simulator would fail on, so
// a stub stands in. The job ID is the cell key.
func newFailingBackend(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/sweeps":
			var req server.SubmitRequest
			json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(server.SubmitResponse{ID: req.Cells[0].Key}) //nolint:errcheck
		case "/healthz":
		default: // GET /v1/jobs/{id}/stream
			key := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/stream")
			enc := json.NewEncoder(w)
			enc.Encode(server.StreamEvent{Type: "cell", //nolint:errcheck
				Cell: &server.CellStatus{Key: key, Done: true, Error: "simulated failure"}})
			enc.Encode(server.StreamEvent{Type: "end", State: server.StateFailed}) //nolint:errcheck
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestStreamedCellErrorIsPermanent: a cell error that arrives on the job
// stream is the simulation's own verdict, so the coordinator neither
// retries it nor fails it over to the healthy backend.
func TestStreamedCellErrorIsPermanent(t *testing.T) {
	failing, healthy := newFailingBackend(t), newBackend(t)
	c := newCoordinator(t, Options{Backends: []string{failing.URL, healthy.URL}})
	_, err := c.Run([]harness.Cell{{Key: "doomed", Cfg: testCfg("gcc", core.SchemeBase)}}, harness.Options{})
	var ce *harness.CellError
	if !errors.As(err, &ce) || ce.Key != "doomed" || !strings.Contains(ce.Error(), "simulated failure") {
		t.Fatalf("err = %v, want the streamed failure of cell doomed", err)
	}
	if r, f := intMetric(t, c, "retries"), intMetric(t, c, "failovers"); r != 0 || f != 0 {
		t.Fatalf("retries = %v, failovers = %v, want 0 and 0", r, f)
	}
	counts := backendDispatchCounts(t, c)
	if counts[failing.URL] != 1 || counts[healthy.URL] != 0 {
		t.Fatalf("dispatch counts = %v, want one attempt on the failing backend only", counts)
	}
}

// TestCellErrorKeySurvivesDispatch pins the error contract through the
// cluster: a doomed cell aborts the sweep with a *harness.CellError whose
// Key is the submitted cell's key, exactly as local harness.Run would.
func TestCellErrorKeySurvivesDispatch(t *testing.T) {
	b := newBackend(t)
	c := newCoordinator(t, Options{Backends: []string{b.URL}})

	cells := []harness.Cell{
		{Key: "fine", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "doomed", Cfg: core.Config{Benchmarks: []string{"nonesuch"}, MaxInstructions: 1000}},
	}
	_, err := c.Run(cells, harness.Options{})
	if err == nil {
		t.Fatal("sweep with a doomed cell succeeded")
	}
	var ce *harness.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a *harness.CellError: %v", err, err)
	}
	if ce.Key != "doomed" {
		t.Fatalf("CellError key %q, want %q", ce.Key, "doomed")
	}
	// Rejected requests are permanent: no retry storm against the backend.
	if got := intMetric(t, c, "retries"); got != 0 {
		t.Fatalf("retries = %v for a permanent failure, want 0", got)
	}
}

// TestResumeSkipsCompletedCells is the checkpointed-resume acceptance
// check: a coordinator killed mid-sweep leaves its completed cells in the
// store; re-running with Resume dispatches only the missing hashes.
func TestResumeSkipsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	cells := []harness.Cell{
		{Key: "a", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "b", Cfg: testCfg("gcc", core.SchemeVISA)},
		{Key: "c", Cfg: testCfg("mcf", core.SchemeBase)},
		{Key: "d", Cfg: testCfg("mcf", core.SchemeVISA)},
	}

	// "First life": the sweep got through cells a and b before the
	// coordinator died — their results are checkpointed in the store.
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := newBackend(t)
	first := newCoordinator(t, Options{Backends: []string{b1.URL}, Store: st1})
	if _, err := first.Run(cells[:2], harness.Options{}); err != nil {
		t.Fatal(err)
	}
	if st1.Len() != 2 {
		t.Fatalf("store holds %d checkpoints after partial sweep, want 2", st1.Len())
	}

	// "Second life": fresh store handle, fresh coordinator, fresh
	// backend, full sweep in resume mode.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b2 := newBackend(t)
	second := newCoordinator(t, Options{Backends: []string{b2.URL}, Store: st2, Resume: true})
	remote, err := second.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := harness.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := range local {
		rj, _ := json.Marshal(remote[key])
		lj, _ := json.Marshal(local[key])
		if !bytes.Equal(rj, lj) {
			t.Fatalf("cell %s differs after resume", key)
		}
	}
	if got := intMetric(t, second, "resume_skips"); got != 2 {
		t.Fatalf("resume_skips = %v, want 2", got)
	}
	var total float64
	for _, n := range backendDispatchCounts(t, second) {
		total += n
	}
	if total != 2 {
		t.Fatalf("resumed sweep dispatched %v cells, want only the 2 missing ones", total)
	}
	if st2.Len() != 4 {
		t.Fatalf("store holds %d checkpoints after resume, want 4", st2.Len())
	}
}

// TestHedgedDispatchBeatsStraggler: the first backend hangs on first
// contact; with hedging enabled the cell re-dispatches to the second
// backend and the sweep finishes long before the straggler's timeout.
func TestHedgedDispatchBeatsStraggler(t *testing.T) {
	fastSrv := newBackend(t)

	slowSim := server.New(server.Options{})
	slow := &flakyBackend{real: slowSim.Handler(), left: 1, hang: true, release: make(chan struct{})}
	slowTS := httptest.NewServer(slow)
	t.Cleanup(func() {
		close(slow.release) // runs before slowTS.Close would wait on the conn
		slowTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		slowSim.Shutdown(ctx) //nolint:errcheck
	})

	// Straggler first in the list so the single cell lands on it.
	c := newCoordinator(t, Options{
		Backends:   []string{slowTS.URL, fastSrv.URL},
		HedgeAfter: 25 * time.Millisecond,
	})
	cells := []harness.Cell{{Key: "x", Cfg: testCfg("gcc", core.SchemeBase)}}
	done := make(chan error, 1)
	var remote harness.Results
	go func() {
		var err error
		remote, err = c.Run(cells, harness.Options{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hedged sweep did not finish while the straggler hung")
	}
	if got := intMetric(t, c, "hedges"); got < 1 {
		t.Fatalf("hedges = %v, want >= 1", got)
	}
	local, err := harness.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := json.Marshal(remote["x"])
	lj, _ := json.Marshal(local["x"])
	if !bytes.Equal(rj, lj) {
		t.Fatal("hedged result differs from local run")
	}
}

// TestProbeMarksDownBackend: a dead URL is reported unhealthy by Probe and
// dispatch routes around it without retries once probed.
func TestProbeMarksDownBackend(t *testing.T) {
	alive := newBackend(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	c := newCoordinator(t, Options{Backends: []string{deadURL, alive.URL}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sts := c.Probe(ctx)
	if len(sts) != 2 {
		t.Fatalf("probe returned %d statuses", len(sts))
	}
	if sts[0].Healthy || sts[0].Error == "" {
		t.Fatalf("dead backend reported healthy: %+v", sts[0])
	}
	if !sts[1].Healthy {
		t.Fatalf("live backend reported unhealthy: %+v", sts[1])
	}

	remote, err := c.Run([]harness.Cell{{Key: "k", Cfg: testCfg("gcc", core.SchemeBase)}}, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if remote["k"] == nil {
		t.Fatal("no result for k")
	}
	counts := backendDispatchCounts(t, c)
	if counts[deadURL] != 0 {
		t.Fatalf("dispatched %v cells to a probed-down backend", counts[deadURL])
	}
}

// TestEmptyAndInvalidSweeps covers the edges shared with harness.Run.
func TestEmptyAndInvalidSweeps(t *testing.T) {
	b := newBackend(t)
	c := newCoordinator(t, Options{Backends: []string{b.URL}})
	res, stats, err := c.RunStats(nil, harness.Options{})
	if err != nil || len(res) != 0 || len(stats) != 0 {
		t.Fatalf("empty sweep: %v %v %v", res, stats, err)
	}
	dup := []harness.Cell{
		{Key: "x", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "x", Cfg: testCfg("mcf", core.SchemeBase)},
	}
	if _, err := c.Run(dup, harness.Options{}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

// TestNewRejectsBadBackendLists pins constructor validation.
func TestNewRejectsBadBackendLists(t *testing.T) {
	for _, bad := range [][]string{nil, {}, {""}, {"http://a", "http://a/"}} {
		if c, err := New(Options{Backends: bad}); err == nil {
			c.Close()
			t.Errorf("New(%q) succeeded", bad)
		}
	}
}

// TestCoordinatorReusesConnections pins the default transport: every
// in-flight attempt holds a connection while it reads its job stream, so
// the coordinator keeps one idle connection per worker instead of dialing
// a backend afresh for most cells.
func TestCoordinatorReusesConnections(t *testing.T) {
	s := server.New(server.Options{})
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	const workers = 4
	c := newCoordinator(t, Options{Backends: []string{ts.URL}, Workers: workers})
	var cells []harness.Cell
	for i := 0; i < 6*workers; i++ {
		cfg := testCfg("gcc", core.SchemeBase)
		cfg.MaxInstructions = 2000 + uint64(i)
		cells = append(cells, harness.Cell{Key: fmt.Sprint(i), Cfg: cfg})
	}
	for pass := 0; pass < 2; pass++ { // cold, then warm
		if _, err := c.Run(cells, harness.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n > workers {
		t.Fatalf("coordinator opened %d connections for %d workers", n, workers)
	}
}
