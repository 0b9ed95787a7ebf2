package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"visasim/internal/cluster"
	"visasim/internal/core"
	"visasim/internal/harness"
)

func newTestClient(t *testing.T) *Client {
	t.Helper()
	_, ts := newTestServer(t, Options{})
	return &Client{BaseURL: ts.URL}
}

// TestClientMatchesLocalRun proves the client is a drop-in harness.Run
// replacement: same keys, and results that decode to the same numbers a
// local run produces.
func TestClientMatchesLocalRun(t *testing.T) {
	cli := newTestClient(t)
	cells := []harness.Cell{
		{Key: "base", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "visa", Cfg: testCfg("gcc", core.SchemeVISA)},
	}

	remote, remoteStats, err := cli.RunStats(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := harness.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(remote) != 2 || len(remoteStats) != 2 {
		t.Fatalf("remote returned %d results, %d stats", len(remote), len(remoteStats))
	}
	for key := range local {
		r, l := remote[key], local[key]
		if r == nil {
			t.Fatalf("cell %s missing from remote results", key)
		}
		if r.Cycles != l.Cycles || r.IQAVF != l.IQAVF || r.ThroughputIPC != l.ThroughputIPC {
			t.Fatalf("cell %s differs remote vs local: %d/%d cycles, %v/%v IQAVF",
				key, r.Cycles, l.Cycles, r.IQAVF, l.IQAVF)
		}
		if r.TotalCommits() != l.TotalCommits() {
			t.Fatalf("cell %s commits differ", key)
		}
	}
	// The histogram must survive the HTTP round trip (derived totals, no
	// private state): MeanLen is computed from it on the client side.
	for key := range local {
		if got, want := remote[key].RQHist.MeanLen(), local[key].RQHist.MeanLen(); got != want {
			t.Fatalf("cell %s RQHist.MeanLen %v != %v after round trip", key, got, want)
		}
	}
}

func TestClientSubmitErrors(t *testing.T) {
	cli := newTestClient(t)
	_, err := cli.Run([]harness.Cell{{Key: "bad", Cfg: core.Config{Benchmarks: []string{"nonesuch"}}}}, harness.Options{})
	if err == nil || !strings.Contains(err.Error(), "nonesuch") {
		t.Fatalf("bad config error not surfaced: %v", err)
	}
	if _, err := cli.Job(context.Background(), "no-such-job"); err == nil {
		t.Fatal("missing job did not error")
	}
	empty, err := cli.Run(nil, harness.Options{})
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
}

// wedgedStream is the stream route of a daemon that never finishes a job:
// it sends the headers, then no event until the client goes away.
func wedgedStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.(http.Flusher).Flush()
	<-r.Context().Done()
}

// TestWaitDeadline pins that a daemon which never finishes a job cannot
// hang the client: Wait honours its context and Client.Timeout bounds a
// whole RunStats call. A stub server stands in for the wedged daemon.
func TestWaitDeadline(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: "job-1", Cells: 1})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, JobStatus{ID: "job-1", State: StateRunning})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", wedgedStream)
	stub := httptest.NewServer(mux)
	defer stub.Close()

	cli := &Client{BaseURL: stub.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cli.Wait(ctx, "job-1"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on a never-terminal job returned %v, want deadline exceeded", err)
	}

	cli.Timeout = 50 * time.Millisecond
	cells := []harness.Cell{{Key: "c", Cfg: testCfg("gcc", core.SchemeBase)}}
	if _, _, err := cli.RunStats(cells, harness.Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunStats with Timeout returned %v, want deadline exceeded", err)
	}
}

// TestWaitCutStream pins that a stream closing before its end event is an
// error, not a status: the job's outcome is unknown to the reader.
func TestWaitCutStream(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(StreamEvent{Type: "cell", //nolint:errcheck
			Cell: &CellStatus{Key: "c", Done: true}})
	}))
	defer stub.Close()
	cli := &Client{BaseURL: stub.URL}
	st, err := cli.Wait(context.Background(), "job-1")
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Wait on a cut stream = %+v, %v; want an unexpected-EOF error", st, err)
	}
	var he *HTTPError
	if errors.As(err, &he) {
		t.Fatalf("cut stream reported as HTTP error %v", he)
	}
}

// pathRecorder is a transport that remembers the method and path of every
// request it carries.
type pathRecorder struct {
	mu    sync.Mutex
	paths []string
}

func (pr *pathRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	pr.mu.Lock()
	pr.paths = append(pr.paths, req.Method+" "+req.URL.Path)
	pr.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// TestWaitMatchesJob pins that the status Wait builds from a job's events
// equals GET /v1/jobs/{id} once cells are matched by key, for a done job
// (one fresh cell, one cache hit), a failed job (one cell failing beside a
// good one) and a job Shutdown cancels before it runs — and that Wait
// never reads the status endpoint.
func TestWaitMatchesJob(t *testing.T) {
	s, ts := newTestServer(t, Options{JobWorkers: 1})
	rec := &pathRecorder{}
	cli := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: rec}}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	submitCells := func(cells ...harness.Cell) string {
		t.Helper()
		ack, err := cli.Submit(ctx, cells)
		if err != nil {
			t.Fatal(err)
		}
		return ack.ID
	}
	type waited struct {
		st  JobStatus
		err error
	}
	waitAsync := func(id string) <-chan waited {
		ch := make(chan waited, 1)
		go func() {
			st, err := cli.Wait(ctx, id)
			ch <- waited{st, err}
		}()
		return ch
	}
	byKey := func(st JobStatus) JobStatus {
		sort.Slice(st.Cells, func(i, j int) bool { return st.Cells[i].Key < st.Cells[j].Key })
		return st
	}
	check := func(name string, w waited, id, state string, hits int) {
		t.Helper()
		if w.err != nil {
			t.Fatalf("%s: Wait: %v", name, w.err)
		}
		job := getJob(t, ts, id)
		if w.st.State != state || w.st.CacheHits != hits {
			t.Errorf("%s: Wait state %s with %d cache hits, want %s with %d", name, w.st.State, w.st.CacheHits, state, hits)
		}
		if got, want := byKey(w.st), byKey(job); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Wait status differs from Job\nwait: %+v\njob:  %+v", name, got, want)
		}
	}

	warm := testCfg("gcc", core.SchemeBase)
	<-waitAsync(submitCells(harness.Cell{Key: "warm", Cfg: warm}))
	done := submitCells(harness.Cell{Key: "hit", Cfg: warm}, harness.Cell{Key: "fresh", Cfg: testCfg("gcc", core.SchemeVISA)})
	check("done", <-waitAsync(done), done, StateDone, 1)

	// Gate the failing job's first cell on a cache entry the test leads,
	// so that job holds the only job worker while the next one queues and
	// Shutdown cancels it.
	gated, err := testCfg("eon", core.SchemeBase).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := gated.Hash()
	if err != nil {
		t.Fatal(err)
	}
	entry, leader := s.cache.claim(hash)
	if !leader {
		t.Fatal("test could not claim the gate entry")
	}
	failed := submitCells(harness.Cell{Key: "gated", Cfg: gated}, harness.Cell{Key: "ok", Cfg: warm})
	canceled := submitCells(harness.Cell{Key: "queued", Cfg: testCfg("vpr", core.SchemeBase)})
	for getJob(t, ts, failed).State != StateRunning {
		if ctx.Err() != nil {
			t.Fatal("gated job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	failedWait, canceledWait := waitAsync(failed), waitAsync(canceled)
	shutdown := make(chan error, 1)
	go func() { shutdown <- s.Shutdown(ctx) }()
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.cache.fail(hash, entry, errors.New("gate failed"))
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Both of the failed job's cells shared a resolved entry: "ok" the
	// warm result, "gated" the test-led entry's failure.
	check("failed", <-failedWait, failed, StateFailed, 2)
	check("canceled", <-canceledWait, canceled, StateCanceled, 0)

	for _, p := range rec.paths {
		if strings.HasPrefix(p, "GET /v1/jobs/") && !strings.HasSuffix(p, "/stream") {
			t.Errorf("Wait read the job status endpoint: %s", p)
		}
	}
}

// TestParseRetryAfter covers both RFC 7231 Retry-After forms plus the
// clamping rules: delta-seconds, an HTTP-date (future, past, and garbage),
// and hints so large that naive multiplication would overflow a Duration.
func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		name  string
		value string
		min   time.Duration
		max   time.Duration
	}{
		{"delta seconds", "7", 7 * time.Second, 7 * time.Second},
		{"zero seconds", "0", 0, 0},
		{"negative seconds", "-3", 0, 0},
		{"overflowing seconds", "99999999999999", maxRetryAfter, maxRetryAfter},
		{"http-date future", time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat), 8 * time.Second, 10 * time.Second},
		{"http-date past", time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat), 0, 0},
		{"http-date far future", time.Now().Add(400 * 24 * time.Hour).UTC().Format(http.TimeFormat), maxRetryAfter, maxRetryAfter},
		{"garbage", "soon", 0, 0},
		{"empty", "", 0, 0},
	}
	for _, tc := range cases {
		got := parseRetryAfter(tc.value)
		if got < tc.min || got > tc.max {
			t.Errorf("%s: parseRetryAfter(%q) = %v, want in [%v, %v]", tc.name, tc.value, got, tc.min, tc.max)
		}
	}
}

// TestDecodeErrorRetryAfterDate pins the header plumbing end to end: a 429
// carrying only an HTTP-date Retry-After (no millisecond header) must still
// yield a usable positive back-off hint, and an absurd millisecond hint is
// clamped rather than trusted.
func TestDecodeErrorRetryAfterDate(t *testing.T) {
	resp := &http.Response{
		StatusCode: http.StatusTooManyRequests,
		Header:     http.Header{},
		Body:       http.NoBody,
	}
	resp.Header.Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
	var he *HTTPError
	if !errors.As(decodeError(resp), &he) {
		t.Fatal("decodeError did not return an *HTTPError")
	}
	if he.RetryAfter <= 25*time.Second || he.RetryAfter > 30*time.Second {
		t.Errorf("RetryAfter from HTTP-date = %v, want ~30s", he.RetryAfter)
	}

	resp.Body = http.NoBody
	resp.Header.Set(cluster.RetryAfterMsHeader, "999999999999999999")
	if !errors.As(decodeError(resp), &he) {
		t.Fatal("decodeError did not return an *HTTPError")
	}
	if he.RetryAfter != maxRetryAfter {
		t.Errorf("RetryAfter from overflowing ms header = %v, want clamp to %v", he.RetryAfter, maxRetryAfter)
	}
}
