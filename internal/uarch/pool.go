package uarch

import "sync"

// UopPool is a free list of Uop allocations. The pipeline allocates several
// uops per simulated cycle; recycling them caps steady-state allocation at
// the in-flight population (machine size) instead of growing with simulated
// instructions, which removes the allocator and collector from the cycle
// loop's hot path.
//
// Safety protocol (enforced by the pipeline, validated by CheckInvariants):
// a uop may be Put only when no machine structure can reach it again — after
// commit, after a never-issued squash, or, for squashed in-flight uops, when
// their completion-wheel slot fires. References that can survive past that
// point (a producer's dependents list) carry the generation stamp DepRef
// checks against.
//
// Pools are recycled process-wide: a processor takes one with NewUopPool
// when it is built and, once every uop it allocated is back in the free
// list, hands it back with Recycle when its run ends, so every simulation
// after the first starts with a warm free list.
type UopPool struct {
	free []*Uop
}

// uopPools holds the free lists of finished simulations.
var uopPools = sync.Pool{New: func() any { return new(UopPool) }}

// NewUopPool returns a uop free list, recycled from a finished simulation
// when one is available. The caller owns it until Recycle.
func NewUopPool() *UopPool { return uopPools.Get().(*UopPool) }

// Recycle hands p, with its free uops, to a later NewUopPool caller. The
// caller must not use p, or any uop it Put, afterwards.
func (p *UopPool) Recycle() { uopPools.Put(p) }

// Get returns a fresh uop: zeroed fields, queue slots unset, generation
// advanced past any previous life.
func (p *UopPool) Get() *Uop {
	if n := len(p.free); n > 0 {
		u := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return u
	}
	return &Uop{IQSlot: -1, LSQSlot: -1, ROBSlot: -1}
}

// Put resets u and returns it to the pool. The caller must guarantee no
// structure still reaches u except generation-stamped DepRefs.
func (p *UopPool) Put(u *Uop) {
	u.Reset()
	p.free = append(p.free, u)
}
