// Package config defines the simulated machine configuration.
//
// The default configuration reproduces Table 2 of the paper: an 8-wide SMT
// processor with a 96-entry shared issue queue, per-thread 96-entry reorder
// buffers and 48-entry load/store queues, a gshare branch predictor with
// 10-bit per-thread global history, and a three-level memory hierarchy
// (32KB L1I, 64KB L1D, unified 2MB L2, 200-cycle memory).
package config

import (
	"bytes"
	"encoding/json"
	"fmt"

	"visasim/internal/isa"
)

// CacheConfig describes one set-associative cache.
type CacheConfig struct {
	Name       string
	SizeBytes  int
	Assoc      int
	LineBytes  int
	HitLatency int // cycles
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (c.Assoc * c.LineBytes)
}

// Geometry ceilings: generous for any plausible machine, small enough that
// a parsed configuration can never demand absurd allocations or overflow the
// set arithmetic below. Validate enforces them, so construction code may
// assume them.
const (
	maxCacheBytes = 1 << 32
	maxAssoc      = 1 << 12
	maxLineBytes  = 1 << 12
	maxTLBEntries = 1 << 24
	maxQueueSize  = 1 << 20
	maxWidth      = 1 << 10
	maxPredEntry  = 1 << 28
	maxLatency    = 1 << 24
)

// Validate reports an error if the geometry is inconsistent.
func (c CacheConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	case c.SizeBytes > maxCacheBytes || c.Assoc > maxAssoc || c.LineBytes > maxLineBytes:
		return fmt.Errorf("cache %s: geometry %d/%d/%d exceeds supported bounds",
			c.Name, c.SizeBytes, c.Assoc, c.LineBytes)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	case c.SizeBytes%(c.Assoc*c.LineBytes) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by assoc*line %d",
			c.Name, c.SizeBytes, c.Assoc*c.LineBytes)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, c.Sets())
	case c.HitLatency < 1 || c.HitLatency > maxLatency:
		return fmt.Errorf("cache %s: hit latency %d out of range", c.Name, c.HitLatency)
	}
	return nil
}

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	Name        string
	Entries     int
	Assoc       int
	PageBytes   int
	MissPenalty int // cycles
}

// Sets returns the number of sets implied by the geometry.
func (t TLBConfig) Sets() int { return t.Entries / t.Assoc }

// Validate reports an error if the geometry is inconsistent.
func (t TLBConfig) Validate() error {
	switch {
	case t.Entries <= 0 || t.Assoc <= 0 || t.Entries%t.Assoc != 0:
		return fmt.Errorf("tlb %s: bad geometry %d/%d", t.Name, t.Entries, t.Assoc)
	case t.Entries > maxTLBEntries || t.Assoc > maxAssoc:
		return fmt.Errorf("tlb %s: geometry %d/%d exceeds supported bounds", t.Name, t.Entries, t.Assoc)
	case t.Sets()&(t.Sets()-1) != 0:
		return fmt.Errorf("tlb %s: set count %d not a power of two", t.Name, t.Sets())
	case t.PageBytes <= 0 || t.PageBytes > maxCacheBytes || t.PageBytes&(t.PageBytes-1) != 0:
		return fmt.Errorf("tlb %s: page size %d not a power of two", t.Name, t.PageBytes)
	case t.MissPenalty < 0 || t.MissPenalty > maxLatency:
		return fmt.Errorf("tlb %s: miss penalty %d out of range", t.Name, t.MissPenalty)
	}
	return nil
}

// PredictorKind selects the direction predictor.
type PredictorKind uint8

// Direction predictors.
const (
	// PredGshare is Table 2's gshare with per-thread global history.
	PredGshare PredictorKind = iota
	// PredBimodal indexes the counter table by PC only (no history);
	// an ablation baseline.
	PredBimodal
)

func (k PredictorKind) String() string {
	if k == PredBimodal {
		return "bimodal"
	}
	return "gshare"
}

// BranchConfig describes the branch prediction resources.
type BranchConfig struct {
	Kind          PredictorKind
	GshareEntries int // pattern history table entries (2-bit counters)
	HistoryBits   int // global history length, kept per thread
	BTBEntries    int
	BTBAssoc      int
	RASEntries    int // per thread
}

// Issue-queue organization names (the IQOrg axis; implementations live in
// internal/iqorg). The empty string canonicalizes to OrgUnifiedAGE.
const (
	// OrgUnifiedAGE is the paper's baseline: one shared queue, oldest-first
	// (AGE) selection across all threads.
	OrgUnifiedAGE = "unified-age"
	// OrgSWQUE is a mode-switching queue that runs as a circular FIFO in
	// low-occupancy phases and as an AGE queue in capacity-demanding ones.
	OrgSWQUE = "swque"
	// OrgPartitioned is a dynamically partitioned per-thread queue with a
	// dispatch watermark, as reverse-engineered on real SMT silicon.
	OrgPartitioned = "partitioned"
)

// Issue-queue protection mode names (the IQProtection axis; the cost model
// lives in internal/iqorg). The empty string canonicalizes to ProtNone.
const (
	ProtNone        = "none"
	ProtParity      = "parity"
	ProtECC         = "ecc"
	ProtPartialRepl = "partial-replication"
)

// DefaultWatermark is the per-thread dispatch watermark the partitioned
// organization assumes when IQWatermark is zero: 17 entries, the value
// SMTcheck reverse-engineered on a 70-entry POWER-class issue queue. The
// canonical value is clamped to IQSize for small queues.
const DefaultWatermark = 17

// Machine is the full simulated-machine configuration.
type Machine struct {
	// Pipeline widths (fetch = issue = commit, Table 2).
	FetchWidth  int
	IssueWidth  int
	CommitWidth int

	// MaxFetchThreads bounds how many threads supply instructions in a
	// single fetch cycle (ICOUNT.2.8 in the original SMT work).
	MaxFetchThreads int

	// Front-end depth between fetch and rename, and the per-thread
	// fetch-queue capacity.
	FetchQueueSize int
	DecodeLatency  int

	IQSize  int // shared issue queue entries
	ROBSize int // per thread
	LSQSize int // per thread

	// IQOrg selects the issue-queue organization (OrgUnifiedAGE, OrgSWQUE,
	// OrgPartitioned); IQWatermark is the per-thread dispatch cap for the
	// partitioned organization (0 means min(DefaultWatermark, IQSize) and
	// must stay 0 for other organizations); IQProtection selects the
	// soft-error protection mode (ProtNone, ProtParity, ProtECC,
	// ProtPartialRepl). Empty strings canonicalize to the defaults; see
	// Canonical.
	IQOrg        string
	IQWatermark  int
	IQProtection string

	// Function units (Table 2).
	IntALUs    int
	IntMulDivs int
	LoadStores int
	FPALUs     int
	FPMulDivs  int

	Branch BranchConfig

	ITLB TLBConfig
	DTLB TLBConfig

	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	MemoryLatency int // cycles to main memory

	// MispredictPenalty is the minimum front-end refill delay after a
	// branch misprediction is resolved.
	MispredictPenalty int
}

// Default returns the Table 2 machine configuration.
func Default() Machine {
	return Machine{
		FetchWidth:      8,
		IssueWidth:      8,
		CommitWidth:     8,
		MaxFetchThreads: 2,
		FetchQueueSize:  32,
		DecodeLatency:   2,

		IQSize:  96,
		ROBSize: 96,
		LSQSize: 48,

		IQOrg:        OrgUnifiedAGE,
		IQProtection: ProtNone,

		IntALUs:    8,
		IntMulDivs: 4,
		LoadStores: 4,
		FPALUs:     8,
		FPMulDivs:  4,

		Branch: BranchConfig{
			GshareEntries: 2048,
			HistoryBits:   10,
			BTBEntries:    2048,
			BTBAssoc:      4,
			RASEntries:    32,
		},

		ITLB: TLBConfig{Name: "itlb", Entries: 128, Assoc: 4, PageBytes: 4096, MissPenalty: 200},
		DTLB: TLBConfig{Name: "dtlb", Entries: 256, Assoc: 4, PageBytes: 4096, MissPenalty: 200},

		L1I: CacheConfig{Name: "l1i", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 32, HitLatency: 1},
		L1D: CacheConfig{Name: "l1d", SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64, HitLatency: 1},
		L2:  CacheConfig{Name: "l2", SizeBytes: 2 << 20, Assoc: 4, LineBytes: 128, HitLatency: 12},

		MemoryLatency:     200,
		MispredictPenalty: 3,
	}
}

// FUCount returns the number of units in each function-unit pool, indexed by
// isa.FUClass ordinal (int ALU, int mul/div, load/store, FP ALU, FP mul/div).
func (m Machine) FUCount() [5]int {
	return [5]int{m.IntALUs, m.IntMulDivs, m.LoadStores, m.FPALUs, m.FPMulDivs}
}

// Canonical returns m with the issue-queue axis fields made explicit: an
// empty IQOrg becomes OrgUnifiedAGE, an empty IQProtection becomes ProtNone,
// and a zero IQWatermark on the partitioned organization becomes
// min(DefaultWatermark, IQSize). Canonical is idempotent, and Parse applies
// it, so hashing layers (core.Config.Canonical/Hash) see one representation
// per machine regardless of which spelling the caller used.
func (m Machine) Canonical() Machine {
	if m.IQOrg == "" {
		m.IQOrg = OrgUnifiedAGE
	}
	if m.IQProtection == "" {
		m.IQProtection = ProtNone
	}
	if m.IQOrg == OrgPartitioned && m.IQWatermark == 0 {
		m.IQWatermark = DefaultWatermark
		if m.IQSize > 0 && m.IQWatermark > m.IQSize {
			m.IQWatermark = m.IQSize
		}
	}
	return m
}

// CompletionWheelSize is the capacity, in cycles, of the pipeline's
// completion wheel: an issued uop's completion delta must stay strictly
// below it. internal/pipeline sizes the wheel from this constant, and
// Validate rejects every machine whose WorstCompletionDelta does not fit.
const CompletionWheelSize = 1024

// MaxProtectionWakeup bounds the wakeup-latency adder of every issue-queue
// protection mode; internal/iqorg's cost table is tested against it.
const MaxProtectionWakeup = 1

// WorstCompletionDelta is the largest completion delta an issued uop can
// carry on m: the worst data access (DTLB miss, then L1D and L2 misses to
// memory) plus the slowest functional unit and the largest protection
// wakeup adder.
func (m Machine) WorstCompletionDelta() int {
	maxFU := 0
	for k := isa.Kind(0); k < isa.Kind(isa.NumKinds); k++ {
		maxFU = max(maxFU, k.Latency())
	}
	return m.DTLB.MissPenalty + m.L1D.HitLatency + m.L2.HitLatency + m.MemoryLatency +
		maxFU + MaxProtectionWakeup
}

// Validate reports an error for inconsistent configurations.
func (m Machine) Validate() error {
	switch {
	case m.FetchWidth <= 0 || m.IssueWidth <= 0 || m.CommitWidth <= 0:
		return fmt.Errorf("config: non-positive pipeline width")
	case m.FetchWidth > maxWidth || m.IssueWidth > maxWidth || m.CommitWidth > maxWidth:
		return fmt.Errorf("config: pipeline width exceeds %d", maxWidth)
	case m.MaxFetchThreads <= 0:
		return fmt.Errorf("config: MaxFetchThreads must be positive")
	case m.IQSize <= 0 || m.ROBSize <= 0 || m.LSQSize <= 0:
		return fmt.Errorf("config: non-positive queue size")
	case m.IQSize > maxQueueSize || m.ROBSize > maxQueueSize || m.LSQSize > maxQueueSize ||
		m.FetchQueueSize > maxQueueSize:
		return fmt.Errorf("config: queue size exceeds %d", maxQueueSize)
	case m.FetchQueueSize < m.FetchWidth:
		return fmt.Errorf("config: fetch queue (%d) smaller than fetch width (%d)",
			m.FetchQueueSize, m.FetchWidth)
	case m.DecodeLatency < 0 || m.DecodeLatency > maxLatency:
		return fmt.Errorf("config: decode latency %d out of range", m.DecodeLatency)
	case m.IntALUs <= 0 || m.LoadStores <= 0:
		return fmt.Errorf("config: need at least one int ALU and one load/store unit")
	case m.IntALUs > maxWidth || m.IntMulDivs > maxWidth || m.LoadStores > maxWidth ||
		m.FPALUs > maxWidth || m.FPMulDivs > maxWidth ||
		m.IntMulDivs < 0 || m.FPALUs < 0 || m.FPMulDivs < 0:
		return fmt.Errorf("config: function-unit pool size out of range")
	case m.Branch.HistoryBits <= 0 || m.Branch.HistoryBits > 20:
		return fmt.Errorf("config: history bits %d out of range", m.Branch.HistoryBits)
	case m.Branch.GshareEntries <= 0 || m.Branch.GshareEntries > maxPredEntry ||
		m.Branch.GshareEntries&(m.Branch.GshareEntries-1) != 0:
		return fmt.Errorf("config: gshare entries %d not a positive power of two", m.Branch.GshareEntries)
	case m.Branch.BTBEntries <= 0 || m.Branch.BTBAssoc <= 0 ||
		m.Branch.BTBEntries > maxPredEntry || m.Branch.BTBAssoc > maxAssoc ||
		m.Branch.BTBEntries%m.Branch.BTBAssoc != 0 ||
		(m.Branch.BTBEntries/m.Branch.BTBAssoc)&(m.Branch.BTBEntries/m.Branch.BTBAssoc-1) != 0:
		return fmt.Errorf("config: BTB geometry %d/%d invalid", m.Branch.BTBEntries, m.Branch.BTBAssoc)
	case m.Branch.RASEntries <= 0 || m.Branch.RASEntries > maxTLBEntries:
		return fmt.Errorf("config: RAS entries %d out of range", m.Branch.RASEntries)
	case m.MemoryLatency <= 0 || m.MemoryLatency > maxLatency:
		return fmt.Errorf("config: memory latency %d out of range", m.MemoryLatency)
	case m.MispredictPenalty < 0 || m.MispredictPenalty > maxLatency:
		return fmt.Errorf("config: mispredict penalty %d out of range", m.MispredictPenalty)
	}
	switch m.IQOrg {
	case "", OrgUnifiedAGE, OrgSWQUE, OrgPartitioned:
	default:
		return fmt.Errorf("config: unknown issue-queue organization %q", m.IQOrg)
	}
	switch m.IQProtection {
	case "", ProtNone, ProtParity, ProtECC, ProtPartialRepl:
	default:
		return fmt.Errorf("config: unknown issue-queue protection %q", m.IQProtection)
	}
	if m.IQOrg == OrgPartitioned {
		if m.IQWatermark < 0 || m.IQWatermark > m.IQSize {
			return fmt.Errorf("config: watermark %d out of range for %d-entry partitioned queue",
				m.IQWatermark, m.IQSize)
		}
	} else if m.IQWatermark != 0 {
		return fmt.Errorf("config: IQWatermark requires the partitioned organization (IQOrg is %q)", m.IQOrg)
	}
	for _, c := range []CacheConfig{m.L1I, m.L1D, m.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	for _, t := range []TLBConfig{m.ITLB, m.DTLB} {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	if d := m.WorstCompletionDelta(); d >= CompletionWheelSize {
		return fmt.Errorf("config: worst-case completion delta %d cycles (DTLB miss + L1D + L2 + memory + FU + wakeup) does not fit the %d-cycle completion wheel",
			d, CompletionWheelSize)
	}
	return nil
}

// Parse reads a machine configuration from JSON. Parsing starts from the
// Default (Table 2) machine, so a file only has to name the fields it
// overrides; unknown fields and trailing garbage are rejected, and the
// result is validated. This is what `-config file.json` CLI flags consume.
func Parse(data []byte) (Machine, error) {
	m := Default()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Machine{}, fmt.Errorf("config: %w", err)
	}
	// Reject trailing non-whitespace: concatenated documents are almost
	// certainly a mistake.
	if dec.More() {
		return Machine{}, fmt.Errorf("config: trailing data after configuration object")
	}
	m = m.Canonical()
	if err := m.Validate(); err != nil {
		return Machine{}, err
	}
	return m, nil
}

// MarshalJSON emits the configuration in the format Parse accepts.
func (m Machine) MarshalJSON() ([]byte, error) {
	type plain Machine // shed the method set to avoid recursion
	return json.Marshal(plain(m))
}

// String renders the configuration as the rows of Table 2, plus the
// issue-queue organization and protection axes this reproduction adds.
func (m Machine) String() string {
	c := m.Canonical()
	org := c.IQOrg
	if c.IQOrg == OrgPartitioned {
		org = fmt.Sprintf("%s (watermark %d)", c.IQOrg, c.IQWatermark)
	}
	return fmt.Sprintf(`Processor Width     %d-wide fetch/issue/commit
Issue Queue         %d entries, %s, %s protection
ITLB                %d entries, %d-way, %d cycle miss
Branch Predictor    %d entries Gshare, %d-bit global history per thread
BTB                 %d entries, %d-way
Return Address      %d entries RAS per thread
L1 Instruction      %dK, %d-way, %d Byte/line, %d cycle access
ROB Size            %d entries per thread
Load/Store Queue    %d entries per thread
Integer ALU         %d I-ALU, %d I-MUL/DIV, %d Load/Store
FP ALU              %d FP-ALU, %d FP-MUL/DIV/SQRT
DTLB                %d entries, %d-way, %d cycle miss
L1 Data Cache       %dK, %d-way, %d Byte/line, %d cycle access
L2 Cache            unified %dM, %d-way, %d Byte/line, %d cycle access
Memory Access       %d cycles access latency`,
		m.FetchWidth,
		m.IQSize, org, c.IQProtection,
		m.ITLB.Entries, m.ITLB.Assoc, m.ITLB.MissPenalty,
		m.Branch.GshareEntries, m.Branch.HistoryBits,
		m.Branch.BTBEntries, m.Branch.BTBAssoc,
		m.Branch.RASEntries,
		m.L1I.SizeBytes>>10, m.L1I.Assoc, m.L1I.LineBytes, m.L1I.HitLatency,
		m.ROBSize,
		m.LSQSize,
		m.IntALUs, m.IntMulDivs, m.LoadStores,
		m.FPALUs, m.FPMulDivs,
		m.DTLB.Entries, m.DTLB.Assoc, m.DTLB.MissPenalty,
		m.L1D.SizeBytes>>10, m.L1D.Assoc, m.L1D.LineBytes, m.L1D.HitLatency,
		m.L2.SizeBytes>>20, m.L2.Assoc, m.L2.LineBytes, m.L2.HitLatency,
		m.MemoryLatency)
}
