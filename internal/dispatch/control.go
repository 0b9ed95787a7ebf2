package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"visasim/internal/cluster"
	"visasim/internal/harness"
	"visasim/internal/obs"
	"visasim/internal/server"
)

// This file is the coordinator's own HTTP surface — the control plane the
// cluster binaries speak. Backends register and deregister themselves here
// (dynamic membership: `visasimd -register`), operators drain them
// (`visasimctl drain`), and clients submit whole sweeps through the
// scheduler with the daemon's own contract — POST /v1/sweeps, then read
// GET /v1/jobs/{id}/stream — so one server.Client drives either process.

// registerRequest is the body of the membership POSTs.
type registerRequest struct {
	URL string `json:"url"`
}

// jobHistory bounds how many resolved sweeps the control plane keeps for
// status reads; older ones are evicted oldest-first and their IDs answer
// 404.
const jobHistory = 256

// sweepJob is one sweep submitted on the control plane. st is guarded by
// Coordinator.jmu; changed is closed by finishJob when the sweep resolves,
// which wakes the job's stream readers.
type sweepJob struct {
	st      server.JobStatus
	changed chan struct{}
}

// Control returns the coordinator's control-plane handler:
//
//	GET  /healthz                 liveness
//	GET  /v1/backends             pool membership and health
//	POST /v1/backends/register    {"url": ...} join after a handshake probe
//	POST /v1/backends/deregister  {"url": ...} leave immediately
//	POST /v1/backends/drain       {"url": ...} drain gracefully, then leave
//	GET  /v1/tenants              tenant quotas and usage (admission mode)
//	POST /v1/sweeps               submit a sweep to the scheduler (202)
//	GET  /v1/jobs/{id}/stream     wait: NDJSON cell events, then end
//	GET  /v1/jobs/{id}            a submitted sweep's status snapshot
//	GET  /metrics                 coordinator counters as JSON (expvar shape)
//	GET  /metrics/prom            Prometheus text exposition
func (c *Coordinator) Control() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/backends", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, c.Members())
	})
	mux.HandleFunc("/v1/backends/register", c.membershipHandler(func(ctx context.Context, url string) error {
		if err := c.handshake(ctx, url); err != nil {
			return fmt.Errorf("handshake with %s failed: %w", url, err)
		}
		return c.Join(url)
	}))
	mux.HandleFunc("/v1/backends/deregister", c.membershipHandler(func(_ context.Context, url string) error {
		return c.Leave(url)
	}))
	mux.HandleFunc("/v1/backends/drain", c.membershipHandler(c.Drain))
	mux.HandleFunc("/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		if c.opt.Admission == nil {
			writeJSON(w, http.StatusOK, []cluster.TenantStatus{})
			return
		}
		writeJSON(w, http.StatusOK, c.opt.Admission.Snapshot())
	})
	mux.HandleFunc("POST /v1/sweeps", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", c.handleStream)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, c.met.root.String())
	})
	mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WritePrometheus(w)
	})
	return mux
}

// handshake verifies a registering backend actually answers /healthz
// before it enters the pool — a typo'd URL should bounce at registration,
// not poison routing.
func (c *Coordinator) handshake(ctx context.Context, url string) error {
	hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	b := &backend{url: url}
	return b.probe(hctx, c.opt.HTTP)
}

// membershipHandler adapts a membership mutation into a POST handler.
func (c *Coordinator) membershipHandler(op func(ctx context.Context, url string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req registerRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.URL == "" {
			httpErr(w, http.StatusBadRequest, "body must be {\"url\": \"http://host:port\"}")
			return
		}
		if err := op(r.Context(), req.URL); err != nil {
			status := http.StatusBadGateway
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				status = http.StatusGatewayTimeout
			}
			httpErr(w, status, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, c.Members())
	}
}

// handleSubmit accepts a sweep in the daemon's SubmitRequest shape: the
// tenant key in cluster.KeyHeader, the priority class in
// cluster.ClassHeader, the sweep correlation ID in obs.SweepHeader.
// Admission is decided before the 202, so an unknown key answers 401 and a
// throttled tenant 429 with Retry-After and cluster.RetryAfterMsHeader
// hints. The sweep then runs through the scheduler exactly like
// RunStatsContext; clients wait on GET /v1/jobs/{id}/stream.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req server.SubmitRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.TraceLevel > 0 {
		httpErr(w, http.StatusBadRequest, "tracing is per-daemon; submit traced sweeps to a backend directly")
		return
	}
	cells, hashes, err := req.Resolve()
	if err != nil {
		httpErr(w, http.StatusBadRequest, err.Error())
		return
	}

	// The sweep outlives the request, so it runs under a fresh context
	// carrying only the request's scheduling identity.
	sweep := r.Header.Get(obs.SweepHeader)
	if !obs.ValidSweepID(sweep) {
		sweep = obs.NewSweepID()
	}
	ctx := cluster.WithAPIKey(obs.WithSweep(context.Background(), sweep), r.Header.Get(cluster.KeyHeader))
	if name := r.Header.Get(cluster.ClassHeader); name != "" {
		class, err := cluster.ParseClass(name)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx = cluster.WithClass(ctx, class)
	}
	t, err := c.admit(ctx, len(cells))
	if err != nil {
		server.WriteAdmissionError(w, err)
		return
	}

	j := &sweepJob{
		st:      server.JobStatus{State: server.StateRunning, Cells: make([]server.CellStatus, len(cells))},
		changed: make(chan struct{}),
	}
	for i, cell := range cells {
		j.st.Cells[i] = server.CellStatus{Key: cell.Key, Hash: hashes[i]}
	}
	c.jmu.Lock()
	c.jseq++
	id := fmt.Sprintf("job-%d", c.jseq)
	j.st.ID = id
	c.jobs[id] = j
	c.jmu.Unlock()
	c.log.Info("sweep accepted", "sweep", sweep, "job", id,
		"cells", len(cells), "tenant", t.tenant, "class", t.class.String())

	// run returns once every group resolves, or once Close has drained
	// the scheduler, so the goroutine cannot outlive the coordinator's
	// shutdown by more than that drain.
	go func() {
		res, stats, err := c.run(ctx, cells, t)
		c.release(t)
		c.finishJob(j, res, stats, err)
	}()
	writeJSON(w, http.StatusAccepted, server.SubmitResponse{
		ID:     id,
		Sweep:  sweep,
		Cells:  len(cells),
		Job:    "/v1/jobs/" + id,
		Stream: "/v1/jobs/" + id + "/stream",
	})
}

// finishJob publishes a resolved sweep's status, wakes its stream readers
// and evicts resolved jobs beyond jobHistory. A failed sweep reports the
// failing cell's error; cells it never resolved stay not-done. finishJob
// is a job's only writer after submission, so it reads j.st without the
// lock.
func (c *Coordinator) finishJob(j *sweepJob, res harness.Results, stats harness.Stats, err error) {
	st := j.st
	st.Cells = append([]server.CellStatus(nil), j.st.Cells...)
	var ce *harness.CellError
	if err != nil {
		st.State, st.Error = server.StateFailed, err.Error()
		errors.As(err, &ce)
	} else {
		st.State = server.StateDone
	}
	for i := range st.Cells {
		cs := &st.Cells[i]
		switch {
		case ce != nil && cs.Key == ce.Key:
			cs.Done, cs.Error = true, ce.Err.Error()
		case err == nil:
			blob, merr := json.Marshal(res[cs.Key])
			if merr != nil {
				cs.Error = "encoding result: " + merr.Error()
			}
			cs.Done, cs.Result, cs.Stats = true, blob, stats[cs.Key]
		}
	}

	c.jmu.Lock()
	defer c.jmu.Unlock()
	j.st = st
	close(j.changed)
	c.jhist = append(c.jhist, st.ID)
	for len(c.jhist) > jobHistory {
		delete(c.jobs, c.jhist[0])
		c.jhist = c.jhist[1:]
	}
}

// lookup returns a submitted sweep's record and its current status, or
// nil when the ID is unknown (or evicted).
func (c *Coordinator) lookup(id string) (*sweepJob, server.JobStatus) {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	j := c.jobs[id]
	if j == nil {
		return nil, server.JobStatus{}
	}
	return j, j.st
}

// handleJob serves a submitted sweep's status in the daemon's JobStatus
// shape.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	j, st := c.lookup(r.PathValue("id"))
	if j == nil {
		httpErr(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream serves a submitted sweep's events in the daemon's
// StreamEvent shape: once the sweep resolves, one "cell" event per cell
// (not-done cells included), then the "end" event.
func (c *Coordinator) handleStream(w http.ResponseWriter, r *http.Request) {
	j, _ := c.lookup(r.PathValue("id"))
	if j == nil {
		httpErr(w, http.StatusNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	select {
	case <-j.changed:
	case <-r.Context().Done():
		return
	}
	c.jmu.Lock()
	st := j.st
	c.jmu.Unlock()
	enc := json.NewEncoder(w)
	for i := range st.Cells {
		if err := enc.Encode(server.StreamEvent{Type: "cell", Cell: &st.Cells[i]}); err != nil {
			return
		}
	}
	enc.Encode(server.StreamEvent{Type: "end", State: st.State, Error: st.Error}) //nolint:errcheck // client went away
}

// writeJSON responds compactly, like the daemon, so result bytes embedded
// as json.RawMessage pass through exactly as json.Marshal produced them.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

func httpErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
