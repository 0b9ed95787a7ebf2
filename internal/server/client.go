package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"visasim/internal/cluster"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/obs"
)

// Client runs sweeps against a visasimd daemon or a visasimcoord
// coordinator — both serve the same POST /v1/sweeps and
// GET /v1/jobs/{id}/stream contract. Its Run and RunStats methods mirror
// harness.Run / harness.RunStats, so callers (notably
// experiments.Params.Runner) can swap local execution for the service — and
// its cache — without other changes.
// A priority class carried by the context (cluster.WithClass) travels in
// the cluster.ClassHeader header; the coordinator schedules by it and a
// daemon ignores it.
type Client struct {
	// BaseURL locates the daemon, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// Timeout bounds one Run/RunStats call end to end — submit plus the
	// wait for the job to reach a terminal state. Zero means no deadline;
	// set one so a wedged daemon fails the sweep instead of hanging it.
	// Callers needing per-call control use Wait with their own context.
	Timeout time.Duration
	// Logger receives the client's structured log lines — every submit,
	// wait and failure, each carrying the sweep correlation ID (minted at
	// Submit when the context does not already carry one, and sent to the
	// daemon in the obs.SweepHeader header). Nil discards.
	Logger *slog.Logger
	// TraceLevel, when > 0, asks the daemon to record decision traces for
	// every submitted cell (see SubmitRequest.TraceLevel); download them
	// with Trace after the job resolves.
	TraceLevel int
	// APIKey identifies the tenant against an admission-controlled daemon
	// or coordinator; it travels in the cluster.KeyHeader header. Empty
	// sends no key (fine against untenanted servers, 401 against tenanted
	// ones).
	APIKey string
	// Retry429 bounds how many times Submit automatically backs off and
	// retries a 429 (throttled) answer, honoring the server's Retry-After /
	// cluster.RetryAfterMsHeader hints. 0 means the default (4); negative
	// disables the backoff so a 429 surfaces immediately.
	Retry429 int
}

func (c *Client) log() *slog.Logger { return obs.Logger(c.Logger) }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// HTTPError is a non-2xx daemon response. Carrying the status code lets
// callers key policy on it — the dispatch coordinator treats 4xx (the
// request itself was rejected) as permanent and everything else (5xx,
// overload, shutdown races) as retryable on another backend.
type HTTPError struct {
	// StatusCode is the HTTP status the daemon answered with.
	StatusCode int
	// Msg is the daemon's error body (or raw bytes when not JSON).
	Msg string
	// RetryAfter is the server's back-off hint on a 429 — the
	// cluster.RetryAfterMsHeader millisecond value when present, else the
	// Retry-After header in either RFC 7231 form (delta-seconds or an
	// HTTP-date). Hints are clamped to [0, maxRetryAfter]; zero when the
	// response carried neither header or the hint was in the past.
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d)", e.Msg, e.StatusCode)
}

// Temporary reports whether retrying the identical request could succeed:
// false for 4xx (except 429, the canonical back-off-and-retry status),
// true for everything else.
func (e *HTTPError) Temporary() bool {
	if e.StatusCode == http.StatusTooManyRequests {
		return true
	}
	return e.StatusCode < 400 || e.StatusCode >= 500
}

// maxRetryAfter caps any server back-off hint. A misconfigured (or hostile)
// server sending "Retry-After: 99999999999" or a far-future HTTP-date must
// not park a sweep for years — and naive multiplication of such values by
// time.Second overflows int64 into a negative Duration, which the Submit
// back-off loop would treat as "no hint" and hammer the server instead.
const maxRetryAfter = time.Hour

// clampRetryAfter folds a hint into [0, maxRetryAfter]: negatives (a date in
// the past, or an overflowed product) mean "retry now", not "never".
func clampRetryAfter(d time.Duration) time.Duration {
	switch {
	case d <= 0:
		return 0
	case d > maxRetryAfter:
		return maxRetryAfter
	}
	return d
}

// parseRetryAfter interprets a Retry-After header value per RFC 7231 §7.1.3:
// either delta-seconds or an HTTP-date. Unparseable values yield 0.
func parseRetryAfter(v string) time.Duration {
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		if secs > int64(maxRetryAfter/time.Second) {
			return maxRetryAfter
		}
		return clampRetryAfter(time.Duration(secs) * time.Second)
	}
	if at, err := http.ParseTime(v); err == nil {
		return clampRetryAfter(time.Until(at))
	}
	return 0
}

// decodeError surfaces the server's JSON error body as an *HTTPError,
// capturing any back-off hint headers on the way. The millisecond header is
// preferred (finer grained, set by our own daemons); the standard Retry-After
// header is honored in both RFC 7231 forms — delta-seconds and HTTP-date.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	he := &HTTPError{StatusCode: resp.StatusCode, Msg: string(bytes.TrimSpace(body))}
	var er errorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		he.Msg = er.Error
	}
	if ms := resp.Header.Get(cluster.RetryAfterMsHeader); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			if v > int64(maxRetryAfter/time.Millisecond) {
				v = int64(maxRetryAfter / time.Millisecond)
			}
			he.RetryAfter = time.Duration(v) * time.Millisecond
		}
	}
	if he.RetryAfter == 0 {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			he.RetryAfter = parseRetryAfter(ra)
		}
	}
	return he
}

// Submit posts one sweep and returns the job acknowledgement. The request
// is canceled when ctx expires. Submit is the correlation origin: when ctx
// does not already carry a sweep ID (a coordinator minted one upstream),
// one is minted here, and either way it travels to the daemon in the
// obs.SweepHeader header so client, daemon and coordinator logs of the
// same sweep grep together.
// An admission-throttled daemon (429) is retried automatically: Submit
// sleeps for the server's hinted duration and tries again, up to Retry429
// times, so quota pressure degrades a tenant's sweep into a polite wait
// instead of an error.
func (c *Client) Submit(ctx context.Context, cells []harness.Cell) (SubmitResponse, error) {
	ctx, sweep := obs.EnsureSweep(ctx)
	req := SubmitRequest{Cells: make([]SubmitCell, len(cells)), TraceLevel: c.TraceLevel}
	for i, cell := range cells {
		req.Cells[i] = SubmitCell{Key: cell.Key, Config: cell.Cfg}
	}
	blob, err := json.Marshal(req)
	if err != nil {
		return SubmitResponse{}, err
	}
	for attempt := 0; ; attempt++ {
		ack, err := c.submitOnce(ctx, sweep, blob, len(cells))
		var he *HTTPError
		if err == nil || !errors.As(err, &he) ||
			he.StatusCode != http.StatusTooManyRequests || attempt >= c.retries429() {
			return ack, err
		}
		wait := he.RetryAfter
		if wait <= 0 {
			wait = 100 * time.Millisecond
		}
		c.log().Warn("sweep submit throttled; backing off", "sweep", sweep,
			"server", c.BaseURL, "retry_after", wait, "attempt", attempt+1)
		select {
		case <-ctx.Done():
			return SubmitResponse{}, fmt.Errorf("server: backing off after 429: %w", ctx.Err())
		case <-time.After(wait):
		}
	}
}

// retries429 resolves the Retry429 knob: default 4, negative disables.
func (c *Client) retries429() int {
	switch {
	case c.Retry429 < 0:
		return 0
	case c.Retry429 == 0:
		return 4
	default:
		return c.Retry429
	}
}

// submitOnce is one POST /v1/sweeps attempt.
func (c *Client) submitOnce(ctx context.Context, sweep string, blob []byte, cells int) (SubmitResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/sweeps", bytes.NewReader(blob))
	if err != nil {
		return SubmitResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.SweepHeader, sweep)
	if c.APIKey != "" {
		hreq.Header.Set(cluster.KeyHeader, c.APIKey)
	}
	if class, ok := cluster.ClassFrom(ctx); ok {
		hreq.Header.Set(cluster.ClassHeader, class.String())
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		c.log().Error("sweep submit failed", "sweep", sweep, "server", c.BaseURL, "err", err)
		return SubmitResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		err := decodeError(resp)
		c.log().Error("sweep submit rejected", "sweep", sweep, "server", c.BaseURL, "err", err)
		return SubmitResponse{}, err
	}
	var ack SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return SubmitResponse{}, fmt.Errorf("decoding submit response: %w", err)
	}
	c.log().Info("sweep submitted", "sweep", sweep, "server", c.BaseURL,
		"job", ack.ID, "cells", cells)
	return ack, nil
}

// Job fetches a job's current status — a read-only snapshot for tools;
// waiting is Wait's job. The request is canceled when ctx expires.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, decodeError(resp)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return JobStatus{}, fmt.Errorf("decoding job status: %w", err)
	}
	return st, nil
}

// Wait reads the job's event stream (GET /v1/jobs/{id}/stream) until its
// end event and returns the status the events describe: the cell events
// give Cells (in stream order) and CacheHits, the end event State and
// Error. It returns as soon as the server reports the end — there is no
// timer between a job finishing and Wait noticing. An expired ctx ends the
// wait with an error wrapping ctx.Err(); a stream that ends before its end
// event is a plain error, so callers may retry the job elsewhere.
func (c *Client) Wait(ctx context.Context, id string) (JobStatus, error) {
	st, err := c.readStream(ctx, id)
	if err != nil && ctx.Err() != nil {
		return JobStatus{}, fmt.Errorf("server: waiting for job %s: %w", id, ctx.Err())
	}
	return st, err
}

// readStream is Wait without the context-error wrapping.
func (c *Client) readStream(ctx context.Context, id string) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, decodeError(resp)
	}
	st := JobStatus{ID: id}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return JobStatus{}, fmt.Errorf("server: stream of job %s ended before its end event: %w", id, err)
		}
		switch ev.Type {
		case "cell":
			if ev.Cell == nil {
				return JobStatus{}, fmt.Errorf("server: stream of job %s sent a cell event without a cell", id)
			}
			st.Cells = append(st.Cells, *ev.Cell)
			if ev.Cell.Done && ev.Cell.CacheHit {
				st.CacheHits++
			}
		case "end":
			st.State, st.Error = ev.State, ev.Error
			// Read to EOF so the connection goes back to the pool.
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status is complete
			return st, nil
		}
	}
}

// Trace downloads one cell's recorded decision trace from a resolved traced
// job as NDJSON bytes (decision.Trace.WriteNDJSON's format: a header line,
// one line per event, a summary line). The job must have been submitted by a
// client with TraceLevel > 0.
func (c *Client) Trace(ctx context.Context, jobID, cellKey string) ([]byte, error) {
	u := c.BaseURL + "/v1/jobs/" + jobID + "/trace"
	if cellKey != "" {
		u += "?cell=" + url.QueryEscape(cellKey)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Run submits the cells, waits for the job, and returns keyed results with
// harness.Run's semantics: the first failing cell aborts with a *CellError.
// It ignores caller cancellation; interactive callers use RunContext.
func (c *Client) Run(cells []harness.Cell, opt harness.Options) (harness.Results, error) {
	res, _, err := c.RunStats(cells, opt)
	return res, err
}

// RunContext is Run bounded by ctx: canceling ctx aborts the submit or the
// wait immediately, so a coordinator or CLI abort actually stops the
// sweep instead of waiting for it to complete in the background.
func (c *Client) RunContext(ctx context.Context, cells []harness.Cell, opt harness.Options) (harness.Results, error) {
	res, _, err := c.RunStatsContext(ctx, cells, opt)
	return res, err
}

// RunStats is RunStatsContext with a background context — it returns only
// when the job resolves or c.Timeout expires.
func (c *Client) RunStats(cells []harness.Cell, opt harness.Options) (harness.Results, harness.Stats, error) {
	return c.RunStatsContext(context.Background(), cells, opt)
}

// RunStatsContext is Run plus the per-cell cost records the daemon measured
// (for cache hits these echo the original simulation, not the cached
// serve). The opt.Workers bound is ignored — concurrency is the daemon's to
// manage. The call ends at ctx's cancellation or after c.Timeout (when
// set), whichever comes first; the c.Timeout deadline stays a bound even
// for callers passing a never-canceled context.
func (c *Client) RunStatsContext(ctx context.Context, cells []harness.Cell, _ harness.Options) (harness.Results, harness.Stats, error) {
	if len(cells) == 0 {
		return harness.Results{}, harness.Stats{}, nil
	}
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	ctx, sweep := obs.EnsureSweep(ctx)
	ack, err := c.Submit(ctx, cells)
	if err != nil {
		return nil, nil, err
	}
	st, err := c.Wait(ctx, ack.ID)
	if err != nil {
		c.log().Error("sweep wait failed", "sweep", sweep, "server", c.BaseURL,
			"job", ack.ID, "err", err)
		return nil, nil, err
	}
	c.log().Info("sweep finished", "sweep", sweep, "server", c.BaseURL,
		"job", ack.ID, "state", st.State, "cache_hits", st.CacheHits)
	switch st.State {
	case StateCanceled:
		return nil, nil, errors.New("server: job canceled: " + st.Error)
	case StateFailed:
		// A coordinator stops at the first failing cell, so the others
		// may carry no result: report the failure before decoding any.
		for _, cell := range st.Cells {
			if cell.Error != "" {
				return nil, nil, &harness.CellError{Key: cell.Key, Err: errors.New(cell.Error)}
			}
		}
		return nil, nil, errors.New("server: job failed: " + st.Error)
	}
	results := make(harness.Results, len(st.Cells))
	stats := make(harness.Stats, len(st.Cells))
	for _, cell := range st.Cells {
		var res core.Result
		if err := json.Unmarshal(cell.Result, &res); err != nil {
			return nil, nil, fmt.Errorf("decoding result for cell %s: %w", cell.Key, err)
		}
		results[cell.Key] = &res
		stats[cell.Key] = cell.Stats
	}
	return results, stats, nil
}
