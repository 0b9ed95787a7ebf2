package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"visasim/internal/core"
	"visasim/internal/harness"
)

// TestPromMetricsEndpoint exercises GET /metrics/prom end to end: run one
// job, scrape, and check the exposition is well formed — correct content
// type, counters reflecting the job, and at least one populated histogram
// (the format expvar cannot express, and the reason the endpoint exists).
func TestPromMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ack := submit(t, ts, SubmitRequest{Cells: []SubmitCell{
		{Key: "a", Config: testCfg("gcc", core.SchemeBase)},
		{Key: "b", Config: testCfg("gcc", core.SchemeBase)}, // same hash: a cache share
	}})
	if ack.Sweep == "" {
		t.Fatal("submit ack carries no sweep correlation ID")
	}
	waitJob(t, ts, ack.ID)

	resp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics/prom: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want Prometheus text 0.0.4", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(blob)

	for _, want := range []string{
		"# TYPE visasimd_jobs_done_total counter",
		"visasimd_jobs_done_total 1",
		"visasimd_cells_total 2",
		"visasimd_sims_run_total 1",
		"# TYPE visasimd_queue_wait_seconds histogram",
		"visasimd_queue_wait_seconds_bucket{le=\"+Inf\"} 1",
		"visasimd_queue_wait_seconds_count 1",
		"# TYPE visasimd_simulate_seconds histogram",
		"visasimd_simulate_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every sample line must parse as "name[{labels}] value" with no stray
	// output; a loose sanity pass over the whole body.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestClientHonorsCancellation pins the satellite fix: a canceled caller
// context aborts RunContext/RunStatsContext promptly even while the daemon
// reports the job forever-running, instead of waiting to completion.
func TestClientHonorsCancellation(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: "job-1", Cells: 1})
	})
	mux.HandleFunc("GET /v1/jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, JobStatus{ID: "job-1", State: StateRunning})
	})
	mux.HandleFunc("GET /v1/jobs/job-1/stream", wedgedStream)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cli := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()

	done := make(chan error, 1)
	go func() {
		_, _, err := cli.RunStatsContext(ctx, []harness.Cell{
			{Key: "x", Cfg: testCfg("gcc", core.SchemeBase)},
		}, harness.Options{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunStatsContext ignored cancellation (the pre-fix behaviour)")
	}
}

// TestClientTimeoutStillBounds checks the c.Timeout contract survived the
// context plumbing: even with a never-canceled context, Timeout ends the
// wait.
func TestClientTimeoutStillBounds(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: "job-1", Cells: 1})
	})
	mux.HandleFunc("GET /v1/jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, JobStatus{ID: "job-1", State: StateRunning})
	})
	mux.HandleFunc("GET /v1/jobs/job-1/stream", wedgedStream)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cli := &Client{BaseURL: ts.URL, Timeout: 50 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, _, err := cli.RunStats([]harness.Cell{
			{Key: "x", Cfg: testCfg("gcc", core.SchemeBase)},
		}, harness.Options{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("got %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Timeout no longer bounds RunStats")
	}
}
