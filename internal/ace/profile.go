package ace

import (
	"encoding/binary"
	"fmt"
	"sync"

	"visasim/internal/program"
	"visasim/internal/trace"
)

// Profile is the result of an offline vulnerability-profiling run over one
// program (§2.1 of the paper): ground-truth per-instance ACE-ness for the
// profiled prefix of the dynamic stream, plus the per-PC 1-bit ACE tags the
// proposed hardware reads from the extended ISA (a trace.Stream carries them
// to fetch).
type Profile struct {
	// Bits holds ground-truth ACE-ness per dynamic instruction (by
	// commit sequence number) for the profiled prefix. Profiles derived
	// from one Profiler share its storage, so it is read-only.
	Bits *trace.BitSet

	// Tag holds the per-static-instruction (per-PC) ACE tag: true if
	// any profiled dynamic instance of that PC was ACE. Indexed by
	// static instruction index.
	Tag []bool

	// Instances and ACEInstances count profiled dynamic instances per
	// static instruction.
	Instances    []uint64
	ACEInstances []uint64

	// DynInstrs is the number of classified dynamic instructions.
	DynInstrs uint64
	// DynACE is how many of them were ACE.
	DynACE uint64
	// LateMarks is the analyzer's windowing-error count: the ACE marks
	// raised, while streaming the profile's DynInstrs + window
	// instructions, on producers that had already left the window.
	// Marks that only an end-of-stream flush would raise are excluded.
	LateMarks uint64
}

// ACEFraction returns the fraction of profiled dynamic instructions that
// were ACE.
func (p *Profile) ACEFraction() float64 {
	if p.DynInstrs == 0 {
		return 0
	}
	return float64(p.DynACE) / float64(p.DynInstrs)
}

// Accuracy returns the accuracy of per-PC tagging measured against
// per-instance ground truth over committed instructions (Table 1 of the
// paper): the fraction of dynamic instances whose instance ACE-ness matches
// the final PC tag. Because a PC is tagged ACE if any instance is ACE, all
// mismatches are false positives (un-ACE instances tagged ACE); ACE
// instances are never mispredicted.
func (p *Profile) Accuracy() float64 {
	if p.DynInstrs == 0 {
		return 1
	}
	var mismatches uint64
	for i, n := range p.Instances {
		if p.Tag[i] {
			// ACE-tagged PC: un-ACE instances mismatch.
			mismatches += n - p.ACEInstances[i]
		}
		// un-ACE-tagged PC: by construction every instance was
		// un-ACE; no mismatch possible.
	}
	return 1 - float64(mismatches)/float64(p.DynInstrs)
}

// Run profiles prog for dynInstrs dynamic instructions using the given
// analysis window (0 = DefaultWindow). It is a one-shot Profiler.
func Run(prog *program.Program, seed uint64, thread int, dynInstrs uint64, window int) (*Profile, error) {
	return NewProfiler(seed, thread, window).Profile(prog, dynInstrs)
}

// Profiler owns one ACE analysis of a program's committed stream, for one
// (program, seed, thread, window), and derives a Profile of any length from
// it. The analyzer settles instruction i exactly window retirements after
// it, whatever the profile's length. So the per-instance bits of a length-n
// profile are a prefix of any longer profile's bits, and every per-PC
// aggregate is a sum over that prefix. A Profiler keeps only the resolved
// bits and the stream positions of late marks, and analyses again only when
// asked for a longer prefix than it holds. It does not retain the program:
// every Profile call passes it. A Profiler is safe for concurrent use.
type Profiler struct {
	seed   uint64
	thread int
	window uint64

	mu sync.Mutex
	// name and staticLen identify the analysed program, so a call with
	// another program fails instead of reading foreign bits.
	name      string
	staticLen int
	pass      *analysis // nil before the first analysis
}

// analysis is one pass's output. A published analysis is never mutated, so
// readers may use it after the Profiler unlocks.
type analysis struct {
	// bits holds the resolved ACE bits of the analysed prefix.
	bits *trace.BitSet
	// late records where late marks were raised: for each mark, the
	// number of instructions streamed when it was raised, stored as a
	// uvarint delta from the previous mark's. Marks are dense enough
	// that most deltas fit in one byte.
	late []byte
}

// lateMarksWithin returns how many late marks were raised while streaming
// the first streamed instructions.
func (a *analysis) lateMarksWithin(streamed uint64) uint64 {
	var pos, marks uint64
	for buf := a.late; len(buf) > 0; marks++ {
		d, k := binary.Uvarint(buf)
		if pos += d; pos > streamed {
			break
		}
		buf = buf[k:]
	}
	return marks
}

// NewProfiler returns a Profiler for the stream an executor seeded with
// (seed, thread) produces, analysed with the given window (0 selects
// DefaultWindow). The executor is seeded exactly as the timing simulation
// seeds its own (see trace.NewExecutor), so the profiled prefix matches the
// simulated stream instruction for instruction.
func NewProfiler(seed uint64, thread, window int) *Profiler {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Profiler{seed: seed, thread: thread, window: uint64(window)}
}

// Profile returns the profile of the first n dynamic instructions of prog,
// which must be the program every earlier call passed. It takes the bit
// prefix from the shared analysis, without copying it, then replays the
// executor over that prefix to attribute each instance to its static
// instruction.
func (pr *Profiler) Profile(prog *program.Program, n uint64) (*Profile, error) {
	if n == 0 {
		return nil, fmt.Errorf("ace: zero-length profile of %s", prog.Name)
	}
	pass, err := pr.analysisFor(prog, n)
	if err != nil {
		return nil, err
	}
	p := &Profile{
		Bits:         pass.bits.Prefix(n),
		Tag:          make([]bool, prog.Len()),
		Instances:    make([]uint64, prog.Len()),
		ACEInstances: make([]uint64, prog.Len()),
		DynInstrs:    n,
		LateMarks:    pass.lateMarksWithin(n + pr.window),
	}
	exec := trace.NewExecutor(prog, pr.seed, pr.thread)
	var d trace.DynInst
	for seq := uint64(0); seq < n; seq++ {
		exec.Next(&d)
		si := prog.IndexOf(d.Static.PC)
		p.Instances[si]++
		if p.Bits.Get(seq) {
			p.ACEInstances[si]++
			p.Tag[si] = true
			p.DynACE++
		}
	}
	exec.Recycle()
	return p, nil
}

// analysisFor returns an analysis covering at least n instructions of prog,
// running a new pass if the held one is shorter.
func (pr *Profiler) analysisFor(prog *program.Program, n uint64) (*analysis, error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.pass == nil {
		pr.name, pr.staticLen = prog.Name, prog.Len()
	} else if prog.Name != pr.name || prog.Len() != pr.staticLen {
		return nil, fmt.Errorf("ace: profiler of %s (%d static instructions) asked to profile %s (%d)",
			pr.name, pr.staticLen, prog.Name, prog.Len())
	}
	if pr.pass == nil || pr.pass.bits.Len() < n {
		// Round the horizon up to whole windows, so nearby lengths
		// share one pass.
		horizon := (n + pr.window - 1) / pr.window * pr.window
		pr.pass = pr.analyse(prog, horizon)
	}
	return pr.pass, nil
}

// analyse streams horizon + window instructions of prog through an
// Analyzer, so every instruction below horizon gets a full window behind
// it and is settled. The lookahead tail is never flushed: its resolutions
// lie beyond the horizon, and marks a flush raises come from stopping the
// stream, not from windowing error.
func (pr *Profiler) analyse(prog *program.Program, horizon uint64) *analysis {
	out := &analysis{bits: trace.NewBitSet(horizon)}
	an := New(int(pr.window), func(seq uint64, isACE bool) {
		if isACE {
			out.bits.Set(seq, true)
		}
	})
	exec := trace.NewExecutor(prog, pr.seed, pr.thread)
	var d trace.DynInst
	var lastMark uint64
	for streamed := uint64(1); streamed <= horizon+pr.window; streamed++ {
		exec.Next(&d)
		marks := an.lateMarks
		an.Retire(&d)
		for ; marks < an.lateMarks; marks++ {
			out.late = binary.AppendUvarint(out.late, streamed-lastMark)
			lastMark = streamed
		}
	}
	exec.Recycle()
	return out
}
