package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"visasim/internal/cluster"
	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/server"
)

// newControlPlane boots a dynamic, admission-gated coordinator with an
// empty pool and its control HTTP surface.
func newControlPlane(t *testing.T) (*Coordinator, *httptest.Server) {
	t.Helper()
	reg, err := cluster.NewRegistry([]cluster.Tenant{
		{ID: "papers", Key: "pk", Class: "interactive", RatePerSec: 10000, MaxQueued: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(t, Options{Dynamic: true, Admission: cluster.NewAdmission(reg), Workers: 4})
	ctl := httptest.NewServer(c.Control())
	t.Cleanup(ctl.Close)
	return c, ctl
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// throttleRecorder is a transport that remembers every 429 it carries, so
// a test driving server.Client can inspect the retry hints the client
// itself consumes.
type throttleRecorder struct {
	mu      sync.Mutex
	headers []http.Header
}

func (tr *throttleRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		tr.mu.Lock()
		tr.headers = append(tr.headers, resp.Header.Clone())
		tr.mu.Unlock()
	}
	return resp, err
}

func (tr *throttleRecorder) seen() []http.Header {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]http.Header(nil), tr.headers...)
}

// TestControlPlaneLifecycle drives the control plane end to end through
// the same server.Client that talks to a daemon: submit a sweep before any
// backend exists (admission holds its quota), exercise 401 and 429,
// register two daemons over HTTP, check byte parity with a local run and
// that a throttled client backs off until the quota frees, then drain a
// backend out.
func TestControlPlaneLifecycle(t *testing.T) {
	_, ctl := newControlPlane(t)
	rec := &throttleRecorder{}
	newClient := func(key string, retry429 int) *server.Client {
		return &server.Client{BaseURL: ctl.URL, APIKey: key, Retry429: retry429,
			HTTP: &http.Client{Transport: rec}}
	}
	cli := newClient("pk", 0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ctx = cluster.WithClass(cluster.WithAPIKey(ctx, "pk"), cluster.Interactive)

	// The pool is empty, so this sweep waits in the scheduler holding 2
	// of the tenant's 4 cells of quota.
	small := []harness.Cell{
		{Key: "gcc", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "mcf", Cfg: testCfg("mcf", core.SchemeVISA)},
	}
	ack, err := cli.Submit(ctx, small)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID == "" || ack.Sweep == "" || ack.Cells != 2 || ack.Job != "/v1/jobs/"+ack.ID ||
		ack.Stream != ack.Job+"/stream" {
		t.Fatalf("submit ack = %+v", ack)
	}

	// Unknown key → 401.
	var he *server.HTTPError
	if _, err := newClient("wrong", 0).Submit(ctx, small); !errors.As(err, &he) || he.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad-key submit: %v, want HTTP 401", err)
	}

	// Over quota → 429 with both retry hints.
	var big []harness.Cell
	for i := 0; i < 3; i++ {
		cfg := testCfg("gcc", core.SchemeBase)
		cfg.MaxInstructions = testBudget + uint64(i)
		big = append(big, harness.Cell{Key: fmt.Sprintf("big-%d", i), Cfg: cfg})
	}
	if _, err := newClient("pk", -1).Submit(ctx, big); !errors.As(err, &he) || he.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %v, want HTTP 429", err)
	}
	hdr := rec.seen()[0]
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer second count", hdr.Get("Retry-After"))
	}
	if hdr.Get(cluster.RetryAfterMsHeader) == "" {
		t.Errorf("429 without %s", cluster.RetryAfterMsHeader)
	}

	// The backing-off client is throttled too, until the first sweep
	// resolves and frees its quota.
	type outcome struct {
		res harness.Results
		err error
	}
	bigDone := make(chan outcome, 1)
	go func() {
		res, _, err := cli.RunStatsContext(ctx, big, harness.Options{})
		bigDone <- outcome{res, err}
	}()
	for len(rec.seen()) < 2 {
		if ctx.Err() != nil {
			t.Fatal("backing-off client never saw a 429")
		}
		time.Sleep(time.Millisecond)
	}

	// Registration handshakes and reports membership; a dead URL is
	// refused at the handshake.
	b1, b2 := newBackend(t), newBackend(t)
	for i, b := range []string{b1.URL, b2.URL} {
		resp := postJSON(t, ctl.URL+"/v1/backends/register", registerRequest{URL: b})
		var members []BackendStatus
		decodeInto(t, resp, &members)
		if resp.StatusCode != http.StatusOK || len(members) != i+1 {
			t.Fatalf("register %s: HTTP %d, %d members", b, resp.StatusCode, len(members))
		}
	}
	if resp := postJSON(t, ctl.URL+"/v1/backends/register",
		registerRequest{URL: "http://127.0.0.1:1"}); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("registering a dead backend: HTTP %d, want 502", resp.StatusCode)
	}

	st, err := cli.Wait(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone || len(st.Cells) != len(small) {
		t.Fatalf("job status = %+v", st)
	}
	got := <-bigDone
	if got.err != nil {
		t.Fatalf("backing-off sweep: %v", got.err)
	}
	local, err := harness.Run(append(small, big...), harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range st.Cells {
		lj, err := json.Marshal(local[cell.Key])
		if err != nil {
			t.Fatal(err)
		}
		if !cell.Done || !bytes.Equal(cell.Result, lj) {
			t.Fatalf("cell %s: coordinator result differs from local run", cell.Key)
		}
	}
	for key, res := range got.res {
		lj, _ := json.Marshal(local[key])
		rj, _ := json.Marshal(res)
		if !bytes.Equal(rj, lj) {
			t.Fatalf("cell %s: backed-off result differs from local run", key)
		}
	}

	// Tenant usage shows up without leaking keys: both sweeps admitted,
	// the throttled attempts counted as rejections.
	var tenants []cluster.TenantStatus
	tresp, err := http.Get(ctl.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	decodeInto(t, tresp, &tenants)
	if len(tenants) != 1 || tenants[0].ID != "papers" || tenants[0].Admitted != 5 ||
		tenants[0].Rejected < 6 || tenants[0].Queued != 0 {
		t.Fatalf("tenants = %+v, want papers with 5 admitted, >= 6 rejected, none queued", tenants)
	}

	// Drain removes a backend gracefully.
	if resp := postJSON(t, ctl.URL+"/v1/backends/drain",
		registerRequest{URL: b1.URL}); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: HTTP %d", resp.StatusCode)
	}
	bresp, err := http.Get(ctl.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var members []BackendStatus
	decodeInto(t, bresp, &members)
	if len(members) != 1 || members[0].URL != b2.URL {
		t.Fatalf("members after drain = %+v", members)
	}
}

// TestControlPlaneRejectsBadSubmissions pins the daemon's 400/404 answers
// on the coordinator's copy of the contract, and that the control plane
// keeps serving after them.
func TestControlPlaneRejectsBadSubmissions(t *testing.T) {
	c := newCoordinator(t, Options{Backends: []string{newBackend(t).URL}})
	ctl := httptest.NewServer(c.Control())
	t.Cleanup(ctl.Close)

	m := config.Default()
	m.MemoryLatency = 2000 // worst-case completion overflows the wheel
	slow := testCfg("gcc", core.SchemeBase)
	slow.Machine = &m
	dup := server.SubmitCell{Key: "a", Config: testCfg("gcc", core.SchemeBase)}
	for name, req := range map[string]server.SubmitRequest{
		"no cells":        {},
		"traced":          {Cells: []server.SubmitCell{dup}, TraceLevel: 1},
		"duplicate keys":  {Cells: []server.SubmitCell{dup, dup}},
		"invalid machine": {Cells: []server.SubmitCell{{Key: "m", Config: slow}}},
		"unknown bench": {Cells: []server.SubmitCell{{Key: "b",
			Config: testCfg("no-such-benchmark", core.SchemeBase)}}},
	} {
		if resp := postJSON(t, ctl.URL+"/v1/sweeps", req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ctl.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}

	// Still serving: a valid sweep runs to completion.
	cli := &server.Client{BaseURL: ctl.URL, Timeout: time.Minute}
	if _, err := cli.Run([]harness.Cell{{Key: "ok", Cfg: testCfg("gcc", core.SchemeVISA)}}, harness.Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestControlPlaneFailedSweep pins the failure half of the job contract: a
// cell the backend fails marks the job failed, names the cell, and reaches
// server.Client as a *harness.CellError keyed like a local failure.
func TestControlPlaneFailedSweep(t *testing.T) {
	failing := newFailingBackend(t)
	c := newCoordinator(t, Options{Backends: []string{failing.URL}})
	ctl := httptest.NewServer(c.Control())
	t.Cleanup(ctl.Close)

	cli := &server.Client{BaseURL: ctl.URL, Timeout: time.Minute}
	_, err := cli.Run([]harness.Cell{{Key: "doomed", Cfg: testCfg("gcc", core.SchemeBase)}}, harness.Options{})
	var ce *harness.CellError
	if !errors.As(err, &ce) || ce.Key != "doomed" {
		t.Fatalf("err = %v, want a *harness.CellError for cell doomed", err)
	}
	st, err := cli.Job(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateFailed || st.Error == "" || !st.Cells[0].Done || st.Cells[0].Error == "" {
		t.Fatalf("failed job status = %+v", st)
	}

	// The coordinator serves the job's stream too: its last line is the
	// end event, carrying the failing cell's error.
	ack, err := cli.Submit(context.Background(), []harness.Cell{{Key: "doomed", Cfg: testCfg("gcc", core.SchemeBase)}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Stream == "" {
		t.Fatalf("coordinator submit ack has no stream URL: %+v", ack)
	}
	resp, err := http.Get(ctl.URL + ack.Stream)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(blob), []byte("\n"))
	var end server.StreamEvent
	if err := json.Unmarshal(lines[len(lines)-1], &end); err != nil {
		t.Fatalf("last stream line %q: %v", lines[len(lines)-1], err)
	}
	if end.Type != "end" || end.State != server.StateFailed || !strings.Contains(end.Error, "simulated failure") {
		t.Fatalf("last stream event = %+v, want end/failed carrying the cell's error", end)
	}
}
