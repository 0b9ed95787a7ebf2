package trace

import (
	"fmt"
	"math/bits"
	"slices"

	"visasim/internal/recycle"
)

// BitSet is a compact per-dynamic-instruction boolean store, used to carry
// ground-truth ACE-ness from the offline profiling pass into the timing
// simulation.
type BitSet struct {
	words []uint64
	n     uint64
}

// NewBitSet returns a bit set of length n.
func NewBitSet(n uint64) *BitSet {
	return &BitSet{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *BitSet) Len() uint64 { return b.n }

// Set sets bit i to v.
func (b *BitSet) Set(i uint64, v bool) {
	if i >= b.n {
		panic(fmt.Sprintf("trace: BitSet.Set(%d) out of range %d", i, b.n))
	}
	if v {
		b.words[i/64] |= 1 << (i % 64)
	} else {
		b.words[i/64] &^= 1 << (i % 64)
	}
}

// Get returns bit i.
func (b *BitSet) Get(i uint64) bool {
	if i >= b.n {
		panic(fmt.Sprintf("trace: BitSet.Get(%d) out of range %d", i, b.n))
	}
	return b.words[i/64]&(1<<(i%64)) != 0
}

// Prefix returns the first n bits as a bit set that shares b's storage, so
// neither may be modified afterwards. Its last word may carry bits of b
// past n; Get and Count never read them.
func (b *BitSet) Prefix(n uint64) *BitSet {
	if n > b.n {
		panic(fmt.Sprintf("trace: BitSet.Prefix(%d) out of range %d", n, b.n))
	}
	k := (n + 63) / 64
	return &BitSet{words: b.words[:k:k], n: n}
}

// Words returns the backing words (for serialisation), with any bits past
// Len cleared, so equal bit sets give equal words.
func (b *BitSet) Words() []uint64 {
	r := b.n % 64
	if r == 0 || b.words[len(b.words)-1]>>r == 0 {
		return b.words
	}
	w := slices.Clone(b.words)
	w[len(w)-1] &= 1<<r - 1
	return w
}

// NewBitSetFromWords reconstructs a bit set from serialised words.
func NewBitSetFromWords(words []uint64, n uint64) (*BitSet, error) {
	if uint64(len(words)) != (n+63)/64 {
		return nil, fmt.Errorf("trace: %d words cannot back %d bits", len(words), n)
	}
	return &BitSet{words: words, n: n}, nil
}

// Count returns the number of set bits in [0, upto).
func (b *BitSet) Count(upto uint64) uint64 {
	if upto > b.n {
		upto = b.n
	}
	var c uint64
	var i uint64
	for ; i+64 <= upto; i += 64 {
		c += uint64(bits.OnesCount64(b.words[i/64]))
	}
	for ; i < upto; i++ {
		if b.Get(i) {
			c++
		}
	}
	return c
}

// streamCap is the ring capacity of a Stream: it must exceed the maximum
// number of in-flight correct-path instructions per thread (fetch queue +
// ROB + slack). Power of two for cheap indexing.
const streamCap = 1024

// rings recycles Stream rings across simulations (see package recycle).
var rings recycle.Slices[DynInst]

// Stream is a sliding window over a thread's committed dynamic instruction
// stream. The pipeline's fetch unit addresses it by absolute position; the
// commit stage releases positions it will never need again. A profiled
// stream also carries the profile: each instruction's ground-truth ACE-ness
// and each static instruction's per-PC ACE tag.
type Stream struct {
	exec *Executor
	tags []bool  // per static instruction; nil for an unprofiled run
	ace  *BitSet // may be nil (unprofiled run)

	buf  *[streamCap]DynInst
	next uint64 // absolute index of the first ungenerated position
	low  uint64 // lowest position still addressable
}

// NewStream wraps exec with a profile of its program. tags, if non-nil,
// holds the per-static-instruction ACE tags the VISA issue logic reads (the
// paper's 1-bit ISA extension; ace.Profile.Tag), indexed like the program's
// instructions. ace, if non-nil, supplies ground-truth ACE bits by sequence
// number (ace.Profile.Bits); positions beyond its length default to un-ACE.
// Both are only read, so one profile may back any number of streams. The
// stream's ring comes from a process-wide recycler; Recycle hands it back.
func NewStream(exec *Executor, tags []bool, ace *BitSet) *Stream {
	if tags != nil && len(tags) != exec.Prog.Len() {
		panic(fmt.Sprintf("trace: %d ACE tags for %s's %d static instructions", len(tags), exec.Prog.Name, exec.Prog.Len()))
	}
	return &Stream{
		exec: exec,
		tags: tags,
		ace:  ace,
		buf:  (*[streamCap]DynInst)(rings.Get(streamCap)),
	}
}

// Tag returns the profiled ACE tag of static instruction i (false for an
// unprofiled stream).
func (s *Stream) Tag(i int) bool { return s.tags != nil && s.tags[i] }

// At returns the dynamic instruction at absolute position pos, generating
// forward as needed. Positions below the released low-water mark panic:
// that is a pipeline bookkeeping bug, not a recoverable condition.
func (s *Stream) At(pos uint64) *DynInst {
	if pos < s.low {
		panic(fmt.Sprintf("trace: Stream.At(%d) below released mark %d", pos, s.low))
	}
	for s.next <= pos {
		if s.next-s.low >= streamCap {
			panic(fmt.Sprintf("trace: Stream window overflow (low=%d next=%d); pipeline holds too many in-flight instructions", s.low, s.next))
		}
		d := &s.buf[s.next%streamCap]
		s.exec.Next(d)
		if s.ace != nil && d.Seq < s.ace.Len() {
			d.ACE = s.ace.Get(d.Seq)
		}
		s.next++
	}
	return &s.buf[pos%streamCap]
}

// Release marks all positions below pos as no longer needed.
func (s *Stream) Release(pos uint64) {
	if pos > s.low {
		s.low = pos
	}
}

// Recycle hands the stream's ring and its executor's state to the next
// simulation in the process (see Executor.Recycle). The stream must not be
// used afterwards.
func (s *Stream) Recycle() {
	rings.Put(s.buf[:])
	s.buf = nil
	s.exec.Recycle()
}

// Executor exposes the underlying executor (for wrong-path address
// generation).
func (s *Stream) Executor() *Executor { return s.exec }
