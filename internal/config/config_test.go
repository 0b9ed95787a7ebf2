package config

import (
	"strings"
	"testing"
)

func TestParseDefaults(t *testing.T) {
	m, err := Parse([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if m != Default() {
		t.Fatal("empty document must yield the default machine")
	}
}

func TestParseOverride(t *testing.T) {
	m, err := Parse([]byte(`{"IQSize": 64, "ROBSize": 128}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.IQSize != 64 || m.ROBSize != 128 {
		t.Fatalf("overrides not applied: IQ=%d ROB=%d", m.IQSize, m.ROBSize)
	}
	if m.LSQSize != Default().LSQSize {
		t.Fatal("untouched fields must keep defaults")
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		`{"IQSize": 0}`,                 // invalid machine
		`{"NoSuchKnob": 1}`,             // unknown field
		`{"IQSize": 96}{"IQSize": 32}`,  // trailing document
		`{"Branch": {"BTBAssoc": 0}}`,   // division hazard
		`{"Branch": {"RASEntries": 0}}`, // modulo hazard
		`{"MemoryLatency": 2000}`,       // completion delta outside the wheel
		`not json`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTable2(t *testing.T) {
	m := Default()
	if m.FetchWidth != 8 || m.IssueWidth != 8 || m.CommitWidth != 8 {
		t.Error("width must be 8-wide fetch/issue/commit")
	}
	if m.IQSize != 96 {
		t.Errorf("IQ size %d, want 96", m.IQSize)
	}
	if m.ROBSize != 96 || m.LSQSize != 48 {
		t.Errorf("ROB/LSQ %d/%d, want 96/48", m.ROBSize, m.LSQSize)
	}
	if m.IntALUs != 8 || m.IntMulDivs != 4 || m.LoadStores != 4 || m.FPALUs != 8 || m.FPMulDivs != 4 {
		t.Error("function unit complement does not match Table 2")
	}
	if m.Branch.GshareEntries != 2048 || m.Branch.HistoryBits != 10 ||
		m.Branch.BTBEntries != 2048 || m.Branch.BTBAssoc != 4 || m.Branch.RASEntries != 32 {
		t.Error("branch resources do not match Table 2")
	}
	if m.ITLB.Entries != 128 || m.DTLB.Entries != 256 || m.ITLB.MissPenalty != 200 {
		t.Error("TLBs do not match Table 2")
	}
	if m.L1I.SizeBytes != 32<<10 || m.L1I.Assoc != 2 || m.L1I.LineBytes != 32 {
		t.Error("L1I does not match Table 2")
	}
	if m.L1D.SizeBytes != 64<<10 || m.L1D.Assoc != 4 || m.L1D.LineBytes != 64 {
		t.Error("L1D does not match Table 2")
	}
	if m.L2.SizeBytes != 2<<20 || m.L2.Assoc != 4 || m.L2.LineBytes != 128 || m.L2.HitLatency != 12 {
		t.Error("L2 does not match Table 2")
	}
	if m.MemoryLatency != 200 {
		t.Errorf("memory latency %d, want 200", m.MemoryLatency)
	}
}

func TestCacheSets(t *testing.T) {
	c := CacheConfig{Name: "x", SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64, HitLatency: 1}
	if got := c.Sets(); got != 256 {
		t.Fatalf("sets = %d, want 256", got)
	}
}

func TestCacheValidate(t *testing.T) {
	bad := []CacheConfig{
		{Name: "zero", SizeBytes: 0, Assoc: 1, LineBytes: 64, HitLatency: 1},
		{Name: "indivisible", SizeBytes: 1000, Assoc: 3, LineBytes: 64, HitLatency: 1},
		{Name: "nonpow2", SizeBytes: 3 * 64 * 4, Assoc: 4, LineBytes: 64, HitLatency: 1},
		{Name: "latency", SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64, HitLatency: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("cache %s validated but should not", c.Name)
		}
	}
}

func TestTLBValidate(t *testing.T) {
	good := TLBConfig{Name: "t", Entries: 128, Assoc: 4, PageBytes: 4096, MissPenalty: 200}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []TLBConfig{
		{Name: "geom", Entries: 100, Assoc: 3, PageBytes: 4096},
		{Name: "page", Entries: 128, Assoc: 4, PageBytes: 3000},
		{Name: "sets", Entries: 96, Assoc: 4, PageBytes: 4096},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("tlb %s validated but should not", c.Name)
		}
	}
}

func TestMachineValidateRejects(t *testing.T) {
	mutations := []func(*Machine){
		func(m *Machine) { m.FetchWidth = 0 },
		func(m *Machine) { m.MaxFetchThreads = 0 },
		func(m *Machine) { m.IQSize = 0 },
		func(m *Machine) { m.FetchQueueSize = 2 },
		func(m *Machine) { m.IntALUs = 0 },
		func(m *Machine) { m.Branch.HistoryBits = 0 },
		func(m *Machine) { m.Branch.GshareEntries = 1000 },
		func(m *Machine) { m.MemoryLatency = 0 },
		func(m *Machine) { m.L1D.HitLatency = 0 },
	}
	for i, mut := range mutations {
		m := Default()
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d validated but should not", i)
		}
	}
}

func TestMachineString(t *testing.T) {
	s := Default().String()
	for _, want := range []string{
		"8-wide fetch/issue/commit",
		"96",
		"Gshare",
		"32 entries RAS per thread",
		"unified 2M",
		"200 cycles",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("config string missing %q", want)
		}
	}
}

func TestCanonicalIQAxes(t *testing.T) {
	m := Default()
	m.IQOrg, m.IQProtection = "", ""
	c := m.Canonical()
	if c.IQOrg != OrgUnifiedAGE || c.IQProtection != ProtNone {
		t.Fatalf("empty axes must canonicalize to defaults, got %q/%q", c.IQOrg, c.IQProtection)
	}
	if c != c.Canonical() {
		t.Fatal("Canonical must be idempotent")
	}
	if c != Default() {
		t.Fatal("canonicalizing empty axes must reproduce the explicit default machine")
	}

	m = Default()
	m.IQOrg = OrgPartitioned
	if got := m.Canonical().IQWatermark; got != DefaultWatermark {
		t.Fatalf("partitioned watermark default = %d, want %d", got, DefaultWatermark)
	}
	m.IQSize = 12
	if got := m.Canonical().IQWatermark; got != 12 {
		t.Fatalf("watermark must clamp to IQSize, got %d", got)
	}
	m.IQSize, m.IQWatermark = 70, 9
	if got := m.Canonical().IQWatermark; got != 9 {
		t.Fatalf("explicit watermark must survive canonicalization, got %d", got)
	}
}

func TestParseCanonicalizesIQAxes(t *testing.T) {
	m, err := Parse([]byte(`{"IQOrg": "", "IQProtection": ""}`))
	if err != nil {
		t.Fatal(err)
	}
	if m != Default() {
		t.Fatalf("empty spellings must parse to the default machine, got %+v", m)
	}
	p, err := Parse([]byte(`{"IQOrg": "partitioned", "IQSize": 70}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.IQWatermark != DefaultWatermark {
		t.Fatalf("Parse must canonicalize the watermark, got %d", p.IQWatermark)
	}
}

func TestValidateIQAxes(t *testing.T) {
	bad := []func(*Machine){
		func(m *Machine) { m.IQOrg = "ring" },
		func(m *Machine) { m.IQProtection = "tmr" },
		func(m *Machine) { m.IQWatermark = 5 }, // watermark without partitioning
		func(m *Machine) { m.IQOrg = OrgPartitioned; m.IQWatermark = -1 },
		func(m *Machine) { m.IQOrg = OrgPartitioned; m.IQWatermark = m.IQSize + 1 },
	}
	for i, mut := range bad {
		m := Default()
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("IQ-axis mutation %d validated but should not", i)
		}
	}
	good := []func(*Machine){
		func(m *Machine) { m.IQOrg = OrgSWQUE },
		func(m *Machine) { m.IQOrg = OrgPartitioned; m.IQWatermark = 17 },
		func(m *Machine) { m.IQOrg = OrgPartitioned }, // pre-canonical zero watermark
		func(m *Machine) { m.IQProtection = ProtECC },
		func(m *Machine) { m.IQOrg, m.IQProtection = "", "" }, // pre-canonical spellings
	}
	for i, mut := range good {
		m := Default()
		mut(&m)
		if err := m.Validate(); err != nil {
			t.Errorf("IQ-axis variant %d rejected: %v", i, err)
		}
	}
}

func TestFUCountOrder(t *testing.T) {
	m := Default()
	c := m.FUCount()
	want := [5]int{8, 4, 4, 8, 4}
	if c != want {
		t.Fatalf("FUCount = %v, want %v", c, want)
	}
}
