package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"visasim/internal/cluster"
	"visasim/internal/core"
	"visasim/internal/harness"
)

// tenantRegistry is the one-tenant registry the admission tests share:
// effectively unlimited rate, but at most two cells outstanding.
func tenantRegistry(t *testing.T) *cluster.Registry {
	t.Helper()
	reg, err := cluster.NewRegistry([]cluster.Tenant{
		{ID: "papers", Key: "pk", RatePerSec: 100000, MaxQueued: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// postSweep submits raw, with arbitrary headers, and returns the response —
// unlike the submit helper it does not require a 202.
func postSweep(t *testing.T, url string, req SubmitRequest, headers map[string]string) *http.Response {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/sweeps", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func sweepOf(n int, budgetOffset uint64) SubmitRequest {
	var req SubmitRequest
	for i := 0; i < n; i++ {
		cfg := testCfg("gcc", core.SchemeBase)
		cfg.MaxInstructions = testBudget + budgetOffset + uint64(i)
		req.Cells = append(req.Cells, SubmitCell{
			Key: fmt.Sprintf("cell-%d-%d", budgetOffset, i), Config: cfg})
	}
	return req
}

// TestTenantAdmission exercises the daemon-side gate end to end: missing and
// wrong keys answer 401, an over-quota submission answers 429 with both
// retry hints, an in-quota one runs, and retiring the job releases the quota
// so the tenant can submit again.
func TestTenantAdmission(t *testing.T) {
	_, ts := newTestServer(t, Options{Tenants: tenantRegistry(t)})
	auth := map[string]string{cluster.KeyHeader: "pk"}

	if resp := postSweep(t, ts.URL, sweepOf(1, 0), nil); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless submit: HTTP %d, want 401", resp.StatusCode)
	}
	if resp := postSweep(t, ts.URL, sweepOf(1, 0),
		map[string]string{cluster.KeyHeader: "wrong"}); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-key submit: HTTP %d, want 401", resp.StatusCode)
	}

	// Three cells can never fit a two-cell quota, whatever the timing.
	resp := postSweep(t, ts.URL, sweepOf(3, 100), auth)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want a positive integer second count", ra)
	}
	if resp.Header.Get(cluster.RetryAfterMsHeader) == "" {
		t.Errorf("429 without %s", cluster.RetryAfterMsHeader)
	}

	// Two in-quota sweeps back to back: the second is admitted only because
	// the first job's retirement released its cells.
	for round := uint64(0); round < 2; round++ {
		resp := postSweep(t, ts.URL, sweepOf(2, 200+100*round), auth)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("round %d: HTTP %d, want 202", round, resp.StatusCode)
		}
		var ack SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, ts, ack.ID); st.State != StateDone {
			t.Fatalf("round %d: job state %s", round, st.State)
		}
	}

	var tenants []cluster.TenantStatus
	tresp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if err := json.NewDecoder(tresp.Body).Decode(&tenants); err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 1 || tenants[0].ID != "papers" ||
		tenants[0].Admitted != 4 || tenants[0].Rejected != 3 || tenants[0].Queued != 0 {
		t.Fatalf("tenants = %+v, want papers admitted 4, rejected 3, queued 0", tenants)
	}

	promResp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	var prom bytes.Buffer
	if _, err := prom.ReadFrom(promResp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`visasimd_tenant_admitted_cells_total{tenant="papers"} 4`,
		`visasimd_tenant_rejected_cells_total{tenant="papers"} 3`,
		`visasimd_admission_rejected_jobs_total 3`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

// TestClientBacksOffOn429 pins the client side of the contract: a throttled
// submit is retried after the server's millisecond hint instead of failing,
// and the tenant's sweep completes once the quota frees.
func TestClientBacksOffOn429(t *testing.T) {
	s, _ := newTestServer(t, Options{Tenants: tenantRegistry(t)})

	// Front the real daemon with a throttle that bounces the first two
	// submissions the way the admission gate would, hint included.
	var throttled atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps" && throttled.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set(cluster.RetryAfterMsHeader, "30")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(errorResponse{Error: "tenant papers over quota"}) //nolint:errcheck
			return
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(front.Close)

	cells := []harness.Cell{
		{Key: "gcc", Cfg: testCfg("gcc", core.SchemeBase)},
		{Key: "mcf", Cfg: testCfg("mcf", core.SchemeVISA)},
	}
	cl := &Client{BaseURL: front.URL, APIKey: "pk",
		Timeout: 2 * time.Minute}
	t0 := time.Now()
	got, err := cl.Run(cells, harness.Options{})
	if err != nil {
		t.Fatalf("Run after throttling: %v", err)
	}
	if elapsed := time.Since(t0); elapsed < 60*time.Millisecond {
		t.Errorf("Run returned in %v; two 30ms backoffs should take at least 60ms", elapsed)
	}
	if n := throttled.Load(); n != 3 {
		t.Errorf("submit attempts = %d, want 3 (two throttled, one admitted)", n)
	}
	want, err := harness.Run(cells, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for key := range want {
		gj, err := json.Marshal(got[key])
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want[key])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj, wj) {
			t.Errorf("cell %s: served result differs from local run", key)
		}
	}

	// A disabled-backoff client surfaces the 429 immediately.
	throttled.Store(0)
	cl2 := &Client{BaseURL: front.URL, APIKey: "pk", Retry429: -1}
	_, err = cl2.Run(cells[:1], harness.Options{})
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("Retry429=-1 error = %v, want an HTTP 429", err)
	}
	if he.RetryAfter != 30*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 30ms from the millisecond header", he.RetryAfter)
	}
}
