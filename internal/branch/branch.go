// Package branch implements the front-end branch prediction resources of
// Table 2: a gshare direction predictor with per-thread global history, a
// set-associative branch target buffer shared by all threads, and a bounded
// per-thread return address stack.
//
// History is updated speculatively at prediction time and repaired from a
// per-branch checkpoint on misprediction, as the pipeline does.
package branch

import (
	"math/bits"

	"visasim/internal/config"
	"visasim/internal/recycle"
)

// Checkpoint captures the speculative predictor state at a branch so a
// misprediction can restore it.
type Checkpoint struct {
	History uint32
	RASTop  int
	RASVal  uint64
}

// Predictor is the per-core branch prediction unit.
type Predictor struct {
	cfg config.BranchConfig

	pht     []uint8  // 2-bit saturating counters, shared across threads
	history []uint32 // per-thread global history

	btb      []btbEntry // sets*assoc
	btbAssoc int
	btbMask  uint64

	ras   [][]uint64 // per-thread circular RAS
	rasSP []int      // per-thread top index

	// Stats.
	Lookups     uint64
	Mispredicts uint64
	BTBMisses   uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
	used   uint64
}

// phts and btbs recycle predictor tables across simulations (see package
// recycle).
var (
	phts recycle.Slices[uint8]
	btbs recycle.Slices[btbEntry]
)

// New builds a predictor for nthreads contexts.
func New(cfg config.BranchConfig, nthreads int) *Predictor {
	sets := cfg.BTBEntries / cfg.BTBAssoc
	p := &Predictor{
		cfg:      cfg,
		pht:      phts.Get(cfg.GshareEntries),
		history:  make([]uint32, nthreads),
		btb:      btbs.Get(cfg.BTBEntries),
		btbAssoc: cfg.BTBAssoc,
		btbMask:  uint64(sets - 1),
		ras:      make([][]uint64, nthreads),
		rasSP:    make([]int, nthreads),
	}
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	for t := range p.ras {
		p.ras[t] = make([]uint64, cfg.RASEntries)
	}
	return p
}

// Recycle hands the PHT and BTB to the next predictor built in the
// process. The predictor must not be used afterwards; its statistics stay
// readable.
func (p *Predictor) Recycle() {
	phts.Put(p.pht)
	btbs.Put(p.btb)
	p.pht, p.btb = nil, nil
}

func (p *Predictor) phtIndex(thread int, pc uint64) int {
	if p.cfg.Kind == config.PredBimodal {
		return int(pc >> 2 & uint64(p.cfg.GshareEntries-1))
	}
	h := uint64(p.history[thread]) & ((1 << p.cfg.HistoryBits) - 1)
	return int((pc>>2 ^ h) & uint64(p.cfg.GshareEntries-1))
}

// Checkpoint snapshots thread's speculative state before a prediction.
func (p *Predictor) Checkpoint(thread int) Checkpoint {
	sp := p.rasSP[thread]
	top := (sp - 1 + len(p.ras[thread])) % len(p.ras[thread])
	return Checkpoint{
		History: p.history[thread],
		RASTop:  sp,
		RASVal:  p.ras[thread][top],
	}
}

// Restore rewinds thread's speculative state to cp (misprediction repair).
func (p *Predictor) Restore(thread int, cp Checkpoint) {
	p.history[thread] = cp.History
	p.rasSP[thread] = cp.RASTop
	top := (cp.RASTop - 1 + len(p.ras[thread])) % len(p.ras[thread])
	p.ras[thread][top] = cp.RASVal
}

// PredictDirection predicts a conditional branch at pc and speculatively
// shifts the predicted outcome into thread's history.
func (p *Predictor) PredictDirection(thread int, pc uint64) bool {
	p.Lookups++
	taken := p.pht[p.phtIndex(thread, pc)] >= 2
	p.pushHistory(thread, taken)
	return taken
}

func (p *Predictor) pushHistory(thread int, taken bool) {
	h := p.history[thread] << 1
	if taken {
		h |= 1
	}
	p.history[thread] = h & ((1 << p.cfg.HistoryBits) - 1)
}

// Resolve updates the PHT with a conditional branch's actual outcome. On a
// misprediction the caller must also Restore a checkpoint and then call
// FixHistory with the actual outcome.
func (p *Predictor) Resolve(thread int, pc uint64, cpHistory uint32, taken bool) {
	// Index with the history the prediction saw, not the current
	// speculative history (bimodal ignores it).
	idx := int(pc >> 2 & uint64(p.cfg.GshareEntries-1))
	if p.cfg.Kind == config.PredGshare {
		h := uint64(cpHistory) & ((1 << p.cfg.HistoryBits) - 1)
		idx = int((pc>>2 ^ h) & uint64(p.cfg.GshareEntries-1))
	}
	c := p.pht[idx]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.pht[idx] = c
}

// FixHistory shifts the actual outcome into thread's (just-restored)
// history after a misprediction.
func (p *Predictor) FixHistory(thread int, taken bool) { p.pushHistory(thread, taken) }

// BTBLookup returns the predicted target for a control instruction at pc.
func (p *Predictor) BTBLookup(pc uint64, now uint64) (uint64, bool) {
	set := pc >> 2 & p.btbMask
	tag := pc >> 2 >> bits.Len64(p.btbMask)
	base := int(set) * p.btbAssoc
	for i := 0; i < p.btbAssoc; i++ {
		e := &p.btb[base+i]
		if e.valid && e.tag == tag {
			e.used = now
			return e.target, true
		}
	}
	p.BTBMisses++
	return 0, false
}

// BTBInsert installs pc→target.
func (p *Predictor) BTBInsert(pc, target uint64, now uint64) {
	set := pc >> 2 & p.btbMask
	tag := pc >> 2 >> bits.Len64(p.btbMask)
	base := int(set) * p.btbAssoc
	victim := base
	for i := 0; i < p.btbAssoc; i++ {
		e := &p.btb[base+i]
		if e.valid && e.tag == tag {
			e.target = target
			e.used = now
			return
		}
		if !e.valid {
			victim = base + i
		} else if v := &p.btb[victim]; v.valid && e.used < v.used {
			victim = base + i
		}
	}
	p.btb[victim] = btbEntry{tag: tag, target: target, valid: true, used: now}
}

// Push records a call's return address on thread's RAS.
func (p *Predictor) Push(thread int, retPC uint64) {
	sp := p.rasSP[thread]
	p.ras[thread][sp] = retPC
	p.rasSP[thread] = (sp + 1) % len(p.ras[thread])
}

// Pop predicts a return target from thread's RAS.
func (p *Predictor) Pop(thread int) uint64 {
	sp := (p.rasSP[thread] - 1 + len(p.ras[thread])) % len(p.ras[thread])
	p.rasSP[thread] = sp
	return p.ras[thread][sp]
}

// MispredictRate returns mispredictions per direction lookup.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}

// NoteMispredict increments the misprediction counter (the pipeline detects
// mispredictions against its oracle).
func (p *Predictor) NoteMispredict() { p.Mispredicts++ }
