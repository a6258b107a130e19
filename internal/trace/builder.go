package trace

import "repro/internal/isa"

// Builder is the public workload-construction API: a thin, validated
// wrapper over the kernel template machinery the built-in benchmarks use.
// A workload is a loop nest of labelled basic blocks of static
// instructions; memory addresses and branch outcomes come from callbacks
// evaluated per dynamic instance, so PC-indexed predictors see a stable
// static program. Build returns a deterministic Stream that replays the
// template forever (control returns to the first block).
//
//	b := trace.NewBuilder("mykernel", 0x40_0000)
//	b.Block("top")
//	b.Op(isa.IntAlu, r1, r1, r2)
//	b.Load(f0, r1, 8, cursor.Next)
//	b.Branch(r3, "top", trace.LoopTaken(100))
//	s, err := b.Build()
type Builder struct {
	k *kernelBuilder
}

// NewBuilder starts a workload named name whose static instructions get
// PCs from pcBase upward.
func NewBuilder(name string, pcBase uint64) *Builder {
	return &Builder{k: newKernel(name, pcBase)}
}

// Block starts a new basic block with a unique label.
func (b *Builder) Block(label string) { b.k.block(label) }

// Op adds a register-to-register operation of the given class.
func (b *Builder) Op(class isa.Class, dest, src1, src2 isa.Reg) { b.k.op(class, dest, src1, src2) }

// Load adds a load of size bytes: addrReg is the register dependence of
// the effective-address calculation; addr yields the dynamic address.
func (b *Builder) Load(dest, addrReg isa.Reg, size uint8, addr func() uint64) {
	b.k.load(dest, addrReg, size, addr)
}

// LoadIndexed adds a load whose address depends on two registers
// (base + index), the shape that creates two-chain instructions.
func (b *Builder) LoadIndexed(dest, baseReg, indexReg isa.Reg, size uint8, addr func() uint64) {
	b.k.load2(dest, baseReg, indexReg, size, addr)
}

// Store adds a store of dataReg to the address formed from addrReg.
func (b *Builder) Store(dataReg, addrReg isa.Reg, size uint8, addr func() uint64) {
	b.k.store(dataReg, addrReg, size, addr)
}

// Branch adds a conditional branch on condReg to the named block; taken
// decides each dynamic outcome (and may advance counters).
func (b *Builder) Branch(condReg isa.Reg, target string, taken func() bool) {
	b.k.branch(condReg, target, taken)
}

// Jump adds an always-taken branch to the named block.
func (b *Builder) Jump(target string) { b.k.jump(target) }

// Build validates the template (labels resolve, memory ops carry address
// callbacks, no empty blocks) and returns the stream.
func (b *Builder) Build() (Stream, error) { return b.k.build() }

// LoopTaken returns a branch-outcome callback for a counted loop: taken
// n-1 times, then not taken once, repeating.
func LoopTaken(n int) func() bool { return loopTaken(n) }

// Prob returns a branch-outcome callback taken with probability p, drawn
// from a deterministic generator seeded with seed.
func Prob(seed uint64, p float64) func() bool {
	r := newRNG(seed)
	return probTaken(r, p)
}

// StreamAddr returns an address callback walking [base, base+size) with
// the given stride, wrapping at the end — a streaming array access.
func StreamAddr(base, size, stride uint64) func() uint64 {
	c := &streamCursor{base: base, size: size, stride: stride}
	return c.next
}

// RandAddr returns an address callback hitting uniformly random
// align-aligned slots in [base, base+size) — pointer-chase or gather
// access — drawn deterministically from seed.
func RandAddr(seed, base, size, align uint64) func() uint64 {
	c := newRandCursor(newRNG(seed), base, size, align)
	return c.next
}
