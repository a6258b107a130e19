package trace

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/isa"
)

// Checkpoint serialization of the instruction stream. Synthetic
// generators hold closure state and cannot be snapshotted directly, so a
// checkpoint records the stream *position* instead: the workload name and
// seed rebuild the generator, and the consumer skips forward to the warm
// frontier. The memo suffix a checkpoint template has already pulled past
// its own cursor (forked runs that outpaced the template) is carried
// verbatim so a resumed source replays bit-identical instructions without
// re-pulling them from the rebuilt base.

// EncodeInst writes one instruction record.
func EncodeInst(w *codec.Writer, in *isa.Inst) {
	w.U64(in.PC)
	w.U8(uint8(in.Class))
	w.Int(int(in.Src1))
	w.Int(int(in.Src2))
	w.Int(int(in.Dest))
	w.U64(in.Addr)
	w.U8(in.Size)
	w.Bool(in.Taken)
	w.U64(in.Target)
}

// DecodeInst reads one instruction record and validates it. Registers
// are encoded as full ints; each is range-checked before it is narrowed
// to isa.Reg, so an out-of-range value cannot wrap into a valid one.
func DecodeInst(r *codec.Reader) (isa.Inst, error) {
	in := isa.Inst{
		PC:    r.U64(),
		Class: isa.Class(r.U8()),
	}
	var regs [3]int
	for i := range regs {
		regs[i] = r.Int()
	}
	in.Addr = r.U64()
	in.Size = r.U8()
	in.Taken = r.Bool()
	in.Target = r.U64()
	if err := r.Err(); err != nil {
		return isa.Inst{}, err
	}
	for _, v := range regs {
		if v != isa.RegNone && (v < 0 || v >= isa.NumRegs) {
			return isa.Inst{}, fmt.Errorf("trace: decoded register %d out of range at pc %#x", v, in.PC)
		}
	}
	in.Src1, in.Src2, in.Dest = isa.Reg(regs[0]), isa.Reg(regs[1]), isa.Reg(regs[2])
	if err := in.Validate(); err != nil {
		return isa.Inst{}, fmt.Errorf("trace: decoded instruction invalid: %w", err)
	}
	return in, nil
}

// Source returns the cursor's underlying fork source.
func (c *ForkCursor) Source() *ForkSource { return c.src }

// MemoSuffix returns a copy of the memoised instructions at positions
// [from, count): the suffix of the memo from the given position to the
// leading edge. The caller must know that no chunk at or above from has
// been trimmed; a checkpoint template calls this with its own cursor
// position, which live trimming never passes.
func (s *ForkSource) MemoSuffix(from int64) []isa.Inst {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.count.Load()
	if from >= n {
		return nil
	}
	if int(from/forkChunk) < s.lowChunk {
		panic(fmt.Sprintf("trace: memo suffix from %d reaches below trim point (chunk %d)",
			from, s.lowChunk))
	}
	chunks := *s.chunks.Load()
	out := make([]isa.Inst, n-from)
	for i := range out {
		p := from + int64(i)
		out[i] = chunks[p/forkChunk][p%forkChunk]
	}
	return out
}

// ResumeForkSource rebuilds a fork source at a serialized checkpoint's
// warm frontier. It discards skip instructions from base (the frontier's
// position in the original stream), seeds the memo with the carried
// suffix, and returns a source whose origin is the frontier — exactly the
// state NewForkSource + warmup left behind when the checkpoint was saved.
// It fails if base exhausts before the frontier is reached.
func ResumeForkSource(base Stream, skip int64, memo []isa.Inst) (*ForkSource, error) {
	for i := int64(0); i < skip; i++ {
		if _, ok := base.Next(); !ok {
			return nil, fmt.Errorf("trace: %s exhausted at %d/%d while seeking warm frontier",
				base.Name(), i, skip)
		}
	}
	s := NewForkSource(base)
	if len(memo) == 0 {
		return s, nil
	}
	// The carried suffix was already pulled from the original base beyond
	// the frontier; consume the same span from the rebuilt base so it stays
	// aligned, then publish the suffix as the memo prefix.
	for i := range memo {
		in, ok := base.Next()
		if !ok {
			return nil, fmt.Errorf("trace: %s exhausted %d instructions into carried memo suffix",
				base.Name(), i)
		}
		if in != memo[i] {
			return nil, fmt.Errorf("trace: %s diverges from carried memo at frontier offset %d",
				base.Name(), i)
		}
	}
	nchunks := (len(memo) + forkChunk - 1) / forkChunk
	chunks := make([]*[forkChunk]isa.Inst, nchunks)
	for i := range chunks {
		chunks[i] = new([forkChunk]isa.Inst)
	}
	for i, in := range memo {
		chunks[i/forkChunk][i%forkChunk] = in
	}
	s.chunks.Store(&chunks)
	s.count.Store(int64(len(memo)))
	return s, nil
}
