// Package trace functionally executes a synthetic program (package program)
// into its committed-path dynamic instruction stream.
//
// The executor resolves control flow (loop trip counts, conditional
// outcomes, call/return) and effective addresses deterministically from the
// program's metadata and a seed, so the same (program, seed) pair always
// yields the same stream. The timing simulator replays this stream as its
// oracle for correct-path fetch, and the offline vulnerability profiler
// (package ace) runs over the same stream to compute ground-truth ACE-ness.
package trace

import (
	"visasim/internal/isa"
	"visasim/internal/program"
	"visasim/internal/recycle"
	"visasim/internal/rng"
)

// DynInst is one committed-path dynamic instruction.
type DynInst struct {
	Static *isa.Inst
	Seq    uint64 // commit-order index within the thread, starting at 0
	Addr   uint64 // effective address for loads/stores (8-byte aligned)
	Taken  bool   // actual outcome for control instructions
	NextPC uint64 // actual successor PC
	ACE    bool   // ground-truth ACE-ness, filled by the profiling pass
}

// Executor generates a program's committed dynamic stream one instruction at
// a time.
type Executor struct {
	Prog *program.Program

	pc  uint64
	seq uint64

	outcomes *rng.Source // conditional-branch outcome draws
	addrs    *rng.Source // random-access address draws
	wrong    *rng.Source // wrong-path address draws (separate stream so
	// speculative fetch cannot perturb the committed path)

	// branch holds per-static-branch loop state, indexed by
	// BranchPattern-1. remaining == -1 means "trip count not drawn".
	branch []loopState

	// cursor holds per-static-instruction sequential positions: each
	// load/store walks its region independently, so a store PC's data
	// is re-read (or not) by the load PCs sharing its region in a
	// consistent way across dynamic instances.
	cursor []uint64

	// ras is the functional return-address stack (unbounded; the
	// microarchitectural RAS in the pipeline is separately bounded).
	ras []uint64

	// addrTag is XORed into bits 40+ of every data address so that
	// co-scheduled threads occupy disjoint address spaces, as separate
	// processes on an SMT core do.
	addrTag uint64
}

type loopState struct {
	remaining int // back-edge takens left before exit; -1 = draw on entry
}

// loopStates and cursors recycle executor state across simulations (see
// package recycle).
var (
	loopStates recycle.Slices[loopState]
	cursors    recycle.Slices[uint64]
)

// NewExecutor returns an executor over prog. Streams from different seeds
// share the program's control structure but differ in conditional outcomes
// and random-access addresses. thread tags the address space. The executor
// only reads prog, so one program may back any number of executors.
func NewExecutor(prog *program.Program, seed uint64, thread int) *Executor {
	e := &Executor{
		Prog:     prog,
		pc:       program.CodeBase,
		outcomes: rng.New(rng.Hash64(seed, 0x6f75)),
		addrs:    rng.New(rng.Hash64(seed, 0x6164)),
		wrong:    rng.New(rng.Hash64(seed, 0x7770)),
		branch:   loopStates.Get(len(prog.Branches)),
		cursor:   cursors.Get(prog.Len()),
		addrTag:  uint64(thread) << 40,
	}
	for i := range e.branch {
		e.branch[i].remaining = -1
	}
	return e
}

// Recycle hands the executor's per-static-instruction state to the next
// executor in the process. The executor must not be used afterwards.
func (e *Executor) Recycle() {
	loopStates.Put(e.branch)
	cursors.Put(e.cursor)
	e.branch, e.cursor = nil, nil
}

// Next fills out with the next committed instruction and advances the
// executor. The stream is unbounded (programs loop forever).
func (e *Executor) Next(out *DynInst) {
	in := e.Prog.At(e.pc)
	out.Static = in
	out.Seq = e.seq
	out.Addr = 0
	out.Taken = false
	out.ACE = false
	e.seq++

	next := in.FallThrough()
	switch in.Kind {
	case isa.Load, isa.Store:
		out.Addr = e.dataAddr(in)
	case isa.Branch:
		out.Taken = e.branchOutcome(in)
		if out.Taken {
			next = in.Target
		}
	case isa.Jump:
		out.Taken = true
		next = in.Target
	case isa.Call:
		out.Taken = true
		e.ras = append(e.ras, in.FallThrough())
		next = in.Target
	case isa.Return:
		out.Taken = true
		if n := len(e.ras); n > 0 {
			next = e.ras[n-1]
			e.ras = e.ras[:n-1]
		}
	}
	out.NextPC = next
	e.pc = next
}

func (e *Executor) branchOutcome(in *isa.Inst) bool {
	meta := e.Prog.Branch(in)
	if meta.Class == program.BranchLoop {
		st := &e.branch[in.BranchPattern-1]
		if st.remaining < 0 {
			// Entering the loop: draw this entry's trip count.
			st.remaining = e.outcomes.Geometric(meta.TripMean) - 1
		}
		if st.remaining > 0 {
			st.remaining--
			return true
		}
		st.remaining = -1 // exited; redraw on next entry
		return false
	}
	return e.outcomes.Bool(meta.TakenProb)
}

func (e *Executor) dataAddr(in *isa.Inst) uint64 {
	meta := e.Prog.Stream(in)
	cur := &e.cursor[e.Prog.IndexOf(in.PC)]
	var off uint64
	if e.addrs.Bool(meta.RandomFrac) {
		off = e.addrs.Uint64() & meta.Mask
	} else {
		off = (*cur * meta.Stride) & meta.Mask
		*cur++
	}
	return (meta.Base+off)&^7 ^ e.addrTag
}

// WrongPathAddr produces a plausible effective address for a wrong-path
// load/store at static instruction in, without disturbing the committed
// stream's cursors.
func (e *Executor) WrongPathAddr(in *isa.Inst) uint64 {
	meta := e.Prog.Stream(in)
	if meta == nil {
		return e.addrTag
	}
	off := e.wrong.Uint64() & meta.Mask
	return (meta.Base+off)&^7 ^ e.addrTag
}

// Seq returns the number of instructions generated so far.
func (e *Executor) Seq() uint64 { return e.seq }
