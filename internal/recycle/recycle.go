// Package recycle hands a simulation's large buffers on to the next
// simulation in the same process. A simulated cell needs cache-line arrays,
// predictor tables, stream rings and executor state whose sizes depend only
// on the machine geometry and the benchmark; allocating them afresh for
// every cell makes the collector, not the simulator, the cost of a short
// cell.
//
// Buffers are keyed by length, so a buffer of another geometry is never
// handed out, and they live in sync.Pools, so the collector may drop them:
// a buffer kept for a geometry no cell uses any more does not pin memory.
package recycle

import "sync"

// Slices recycles slices of T by length. The zero value is ready to use and
// safe for concurrent use.
type Slices[T any] struct {
	pools sync.Map // int -> *sync.Pool of *[]T
}

// Get returns a zeroed slice of length n: a recycled one when a slice of
// that length was Put and not yet collected, otherwise a new one. Either
// way the result is indistinguishable from make([]T, n).
func (s *Slices[T]) Get(n int) []T {
	if p, ok := s.pools.Load(n); ok {
		if b, ok := p.(*sync.Pool).Get().(*[]T); ok {
			clear(*b)
			return *b
		}
	}
	return make([]T, n)
}

// Put hands b back for a later Get of the same length. The caller must not
// use b afterwards.
func (s *Slices[T]) Put(b []T) {
	if len(b) == 0 {
		return
	}
	p, ok := s.pools.Load(len(b))
	if !ok {
		p, _ = s.pools.LoadOrStore(len(b), new(sync.Pool))
	}
	p.(*sync.Pool).Put(&b)
}
