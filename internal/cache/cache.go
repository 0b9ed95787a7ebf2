// Package cache models the simulated memory hierarchy: set-associative
// write-back caches with true-LRU replacement, MSHR-style merging of
// outstanding misses on the same line, and TLBs (package-level, Table 2
// geometry comes from package config).
//
// Timing is returned as an absolute data-ready cycle so the pipeline can
// schedule load completion without callback plumbing; miss events are
// reported per level so fetch policies (STALL/FLUSH/DG/PDG) and the
// paper's optimisations can key off L2 misses.
package cache

import (
	"math/bits"
	"sync"

	"visasim/internal/config"
	"visasim/internal/recycle"
)

// Level identifies the deepest level that satisfied an access.
type Level uint8

// Access result levels.
const (
	HitL1 Level = iota
	HitL2
	HitMemory // missed in L2; satisfied by main memory
)

func (l Level) String() string {
	switch l {
	case HitL1:
		return "l1"
	case HitL2:
		return "l2"
	default:
		return "memory"
	}
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// lines recycles cache and TLB line arrays across simulations (see package
// recycle), and pendings the caches' (cleared) outstanding-fill maps.
var (
	lines    recycle.Slices[line]
	pendings = sync.Pool{New: func() any { return make(map[uint64]pendingFill) }}
)

// Cache is one set-associative cache level.
type Cache struct {
	cfg      config.CacheConfig
	sets     []line // sets*assoc, row-major
	assoc    int
	setShift uint
	setMask  uint64

	// pending maps a line-address to its outstanding fill (MSHR merge:
	// later accesses to the line wait on the same fill instead of
	// issuing another).
	pending map[uint64]pendingFill

	// Stats.
	Accesses  uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// NewCache builds a cache with the given geometry.
func NewCache(cfg config.CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:      cfg,
		sets:     lines.Get(cfg.Sets() * cfg.Assoc),
		assoc:    cfg.Assoc,
		setShift: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		setMask:  uint64(cfg.Sets() - 1),
		pending:  pendings.Get().(map[uint64]pendingFill),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

func (c *Cache) set(addr uint64) (base int, tag uint64) {
	lineAddr := addr >> c.setShift
	return int(lineAddr&c.setMask) * c.assoc, lineAddr >> bits.Len64(c.setMask)
}

// LineAddr returns addr's line address (for MSHR merging at callers).
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.setShift }

// Lookup probes for addr without modifying state (except stats are not
// touched either). Reports whether the line is resident.
func (c *Cache) Lookup(addr uint64) bool {
	base, tag := c.set(addr)
	for i := 0; i < c.assoc; i++ {
		if l := &c.sets[base+i]; l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Touch probes for addr; on hit it refreshes LRU and returns true.
func (c *Cache) Touch(addr uint64, now uint64, write bool) bool {
	c.Accesses++
	base, tag := c.set(addr)
	for i := 0; i < c.assoc; i++ {
		if l := &c.sets[base+i]; l.valid && l.tag == tag {
			l.used = now
			if write {
				l.dirty = true
			}
			return true
		}
	}
	c.Misses++
	return false
}

// Fill installs addr's line, evicting LRU if needed. Reports whether a
// dirty line was written back.
func (c *Cache) Fill(addr uint64, now uint64, write bool) bool {
	base, tag := c.set(addr)
	victim := base
	for i := 0; i < c.assoc; i++ {
		l := &c.sets[base+i]
		if !l.valid {
			victim = base + i
			break
		}
		if l.used < c.sets[victim].used {
			victim = base + i
		}
	}
	v := &c.sets[victim]
	wb := v.valid && v.dirty
	if v.valid {
		c.Evictions++
		if wb {
			c.Writeback++
		}
	}
	*v = line{tag: tag, valid: true, dirty: write, used: now}
	return wb
}

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// pendingFill records one outstanding line fill: when the data arrives and
// which level it is coming from.
type pendingFill struct {
	ready uint64
	from  Level
}

// pendingAt returns the outstanding fill for addr's line, if any, pruning
// completed fills lazily.
func (c *Cache) pendingAt(addr, now uint64) (pendingFill, bool) {
	la := c.LineAddr(addr)
	p, ok := c.pending[la]
	if !ok {
		return pendingFill{}, false
	}
	if p.ready <= now {
		delete(c.pending, la)
		return pendingFill{}, false
	}
	return p, true
}

func (c *Cache) notePending(addr, ready uint64, from Level) {
	c.pending[c.LineAddr(addr)] = pendingFill{ready: ready, from: from}
}

// TLB is a set-associative translation buffer.
type TLB struct {
	cfg       config.TLBConfig
	sets      []line
	assoc     int
	pageShift uint
	setMask   uint64

	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given geometry.
func NewTLB(cfg config.TLBConfig) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{
		cfg:       cfg,
		sets:      lines.Get(cfg.Entries),
		assoc:     cfg.Assoc,
		pageShift: uint(bits.TrailingZeros64(uint64(cfg.PageBytes))),
		setMask:   uint64(cfg.Sets() - 1),
	}
}

// Access translates addr: returns the added latency (0 on hit, the miss
// penalty on a miss, with the translation installed).
func (t *TLB) Access(addr uint64, now uint64) int {
	t.Accesses++
	page := addr >> t.pageShift
	base := int(page&t.setMask) * t.assoc
	tag := page >> bits.Len64(t.setMask)
	victim := base
	for i := 0; i < t.assoc; i++ {
		l := &t.sets[base+i]
		if l.valid && l.tag == tag {
			l.used = now
			return 0
		}
		if !l.valid {
			victim = base + i
		} else if c := &t.sets[victim]; c.valid && l.used < c.used {
			victim = base + i
		}
	}
	t.Misses++
	t.sets[victim] = line{tag: tag, valid: true, used: now}
	return t.cfg.MissPenalty
}

// MissRate returns misses/accesses (0 when idle).
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
