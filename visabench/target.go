package main

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"time"

	"visasim/internal/dispatch"
	"visasim/internal/harness"
	"visasim/internal/server"
)

// target runs one sweep and returns its keyed results and cost records.
type target interface {
	sweep(cells []harness.Cell, cpuProfile string) (harness.Results, harness.Stats, error)
	close()
}

// local runs sweeps in-process through the harness worker pool.
type local struct{ workers int }

func (l local) sweep(cells []harness.Cell, cpuProfile string) (harness.Results, harness.Stats, error) {
	return harness.RunStats(cells, harness.Options{Workers: l.workers, CPUProfile: cpuProfile})
}

func (local) close() {}

// daemon is one in-process visasimd: the service behind a loopback listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

// cluster is the visasimctl sweep -backends path, in one process: a
// dispatch.Coordinator in front of two daemons with one simulation worker
// each. Affinity routing sends a repeated cell to the daemon whose cache
// holds it.
type cluster struct {
	daemons []*daemon
	coord   *dispatch.Coordinator
}

const daemonCount = 2

func startCluster(seed int64) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for i := 0; i < daemonCount; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("daemon listen: %w", err)
		}
		d := &daemon{
			srv:  server.New(server.Options{SimWorkers: 1}),
			url:  "http://" + ln.Addr().String(),
			done: make(chan struct{}),
		}
		d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			defer close(d.done)
			_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
		}()
		c.daemons = append(c.daemons, d)
		urls = append(urls, d.url)
	}
	coord, err := dispatch.New(dispatch.Options{
		Backends: urls,
		Routing:  dispatch.RouteAffinity,
		Seed:     seed,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = coord
	if err := c.waitHealthy(10 * time.Second); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// waitHealthy probes every daemon until all answer /healthz.
func (c *cluster) waitHealthy(limit time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	for {
		healthy := 0
		for _, st := range c.coord.Probe(ctx) {
			if st.Healthy {
				healthy++
			}
		}
		if healthy == len(c.daemons) {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.New("daemons not healthy in time")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (c *cluster) sweep(cells []harness.Cell, _ string) (harness.Results, harness.Stats, error) {
	return c.coord.RunStats(cells, harness.Options{})
}

// direct sends a sweep straight to the first daemon, bypassing the
// coordinator.
func (c *cluster) direct(cells []harness.Cell) (harness.Results, harness.Stats, error) {
	cli := &server.Client{BaseURL: c.daemons[0].url}
	return cli.RunStats(cells, harness.Options{})
}

// close stops the coordinator and the daemons and waits for their
// goroutines to exit.
func (c *cluster) close() {
	if c.coord != nil {
		c.coord.Close()
	}
	for _, d := range c.daemons {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = d.hs.Shutdown(ctx)  // best effort: the process is ending
		_ = d.srv.Shutdown(ctx) // idem
		cancel()
		<-d.done
	}
}

// counters are the service-side counts read around each sweep.
type counters struct {
	hits, resolved    int64 // daemons: cache_hits and cells_total, summed
	dispatched, cells int64 // coordinator: attempts sent to backends, cells accepted
}

func (c *cluster) counters() counters {
	var n counters
	for _, d := range c.daemons {
		n.hits += expInt(d.srv.MetricsVar(), "cache_hits")
		n.resolved += expInt(d.srv.MetricsVar(), "cells_total")
	}
	n.cells = expInt(c.coord.MetricsVar(), "cells_total")
	if m, ok := c.coord.MetricsVar().(*expvar.Map); ok {
		if backends, ok := m.Get("backends").(*expvar.Map); ok {
			backends.Do(func(kv expvar.KeyValue) {
				n.dispatched += expInt(kv.Value, "dispatched")
			})
		}
	}
	return n
}

func (a counters) sub(b counters) counters {
	return counters{a.hits - b.hits, a.resolved - b.resolved, a.dispatched - b.dispatched, a.cells - b.cells}
}

// expInt reads an integer child of an expvar map (0 when absent).
func expInt(v expvar.Var, name string) int64 {
	m, ok := v.(*expvar.Map)
	if !ok {
		return 0
	}
	i, ok := m.Get(name).(*expvar.Int)
	if !ok {
		return 0
	}
	return i.Value()
}
