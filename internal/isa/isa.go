// Package isa defines the abstract instruction set used by the simulator:
// operation classes, execution latencies (Table 1 of the paper), and the
// architectural register file layout.
//
// The simulator is trace driven, so the ISA is deliberately minimal: an
// instruction is an operation class plus up to two source registers, an
// optional destination register, and (for memory and control operations)
// an effective address or branch target. Functional semantics (values) are
// not modelled; data dependences, latencies and memory addresses are.
package isa

import "fmt"

// Class identifies the kind of operation an instruction performs. The class
// determines which function-unit pool executes it and its base latency.
type Class uint8

// Operation classes. Memory operations are split at dispatch, as in the
// paper: the effective-address calculation is an ordinary integer op routed
// to the IQ, and the access itself lives in the LSQ.
const (
	IntAlu Class = iota // integer add/sub/logic/shift/compare
	IntMul              // integer multiply
	IntDiv              // integer divide (unpipelined)
	FpAdd               // FP add/subtract
	FpMul               // FP multiply
	FpDiv               // FP divide (unpipelined)
	FpSqrt              // FP square root (unpipelined)
	Load                // memory load (EA calc in IQ + access in LSQ)
	Store               // memory store (EA calc in IQ + access in LSQ)
	Branch              // conditional or unconditional control transfer
	NumClasses
)

var classNames = [NumClasses]string{
	"IntAlu", "IntMul", "IntDiv", "FpAdd", "FpMul", "FpDiv", "FpSqrt",
	"Load", "Store", "Branch",
}

// String returns the mnemonic name of the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Valid reports whether c is a defined operation class.
func (c Class) Valid() bool { return c < NumClasses }

// Latency returns the execution latency in cycles of the class, per Table 1
// of the paper. For Load and Store this is the latency of the
// effective-address calculation (one integer-ALU cycle); the memory access
// latency is determined by the cache hierarchy.
func (c Class) Latency() int {
	return latencies[c]
}

var latencies = [NumClasses]int{
	IntAlu: 1,
	IntMul: 3,
	IntDiv: 20,
	FpAdd:  2,
	FpMul:  4,
	FpDiv:  12,
	FpSqrt: 24,
	Load:   1, // EA calculation
	Store:  1, // EA calculation
	Branch: 1,
}

// Pipelined reports whether the function units for this class accept a new
// operation every cycle. Per Table 1, all operations are fully pipelined
// except divide and square root.
func (c Class) Pipelined() bool {
	switch c {
	case IntDiv, FpDiv, FpSqrt:
		return false
	}
	return true
}

// IsMem reports whether the class is a memory operation.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsFP reports whether the class executes on the floating-point side.
func (c Class) IsFP() bool {
	switch c {
	case FpAdd, FpMul, FpDiv, FpSqrt:
		return true
	}
	return false
}

// Architectural register file layout. Register 0..NumIntRegs-1 are integer
// registers; NumIntRegs..NumRegs-1 are floating point. RegNone marks an
// absent operand.
const (
	NumIntRegs = 32
	NumFpRegs  = 32
	NumRegs    = NumIntRegs + NumFpRegs

	// RegZero is the hardwired integer zero register; reads from it are
	// always ready and writes to it are discarded, as on Alpha (r31).
	RegZero = 31

	// RegNone marks a missing source or destination operand.
	RegNone = -1
)

// Reg is an architectural register index (0..NumRegs-1) or RegNone. It
// is an int8 because Inst is the element of every trace memo chunk and is
// embedded in every in-flight UOp: a narrow register field keeps Inst at
// 32 bytes (64 with int fields) and UOp in the 128-byte size class.
type Reg int8

// IntReg returns the architectural index of integer register n.
func IntReg(n int) Reg {
	if n < 0 || n >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register %d out of range", n))
	}
	return Reg(n)
}

// FpReg returns the architectural index of floating-point register n.
func FpReg(n int) Reg {
	if n < 0 || n >= NumFpRegs {
		panic(fmt.Sprintf("isa: fp register %d out of range", n))
	}
	return Reg(NumIntRegs + n)
}

// RegName returns a human-readable name ("r7", "f12") for an architectural
// register index, or "-" for RegNone.
func RegName(r Reg) string {
	switch {
	case r == RegNone:
		return "-"
	case r >= 0 && r < NumIntRegs:
		return fmt.Sprintf("r%d", r)
	case r >= NumIntRegs && r < NumRegs:
		return fmt.Sprintf("f%d", r-NumIntRegs)
	}
	return fmt.Sprintf("reg(%d)", r)
}

// Inst is one dynamic instruction record in a trace. It is the static
// information the pipeline front end receives; all scheduling state lives in
// the pipeline's dynamic wrapper.
//
// The one-byte fields sit together after PC so the record packs into 32
// bytes with no interior padding.
type Inst struct {
	PC    uint64 // instruction address
	Class Class

	Src1 Reg // architectural source register or RegNone
	Src2 Reg // architectural source register or RegNone
	Dest Reg // architectural destination register or RegNone

	// Size is the access size in bytes for Load/Store classes.
	Size uint8
	// Taken is the actual direction for Branch classes.
	Taken bool

	// Addr is the effective address for Load/Store classes.
	Addr uint64
	// Target is the actual target of a taken Branch.
	Target uint64
}

// HasDest reports whether the instruction produces a register value that
// later instructions can consume. Writes to the zero register produce
// nothing.
func (in *Inst) HasDest() bool {
	return in.Dest != RegNone && in.Dest != RegZero
}

// Validate checks structural well-formedness of the record: class in range,
// register indices in range, memory ops carry an address and size, branches
// carry a target when taken. It returns a descriptive error for the first
// violation found.
func (in *Inst) Validate() error {
	if !in.Class.Valid() {
		return fmt.Errorf("isa: invalid class %d at pc %#x", in.Class, in.PC)
	}
	for _, r := range [...]Reg{in.Src1, in.Src2, in.Dest} {
		if r != RegNone && (r < 0 || r >= NumRegs) {
			return fmt.Errorf("isa: register %d out of range at pc %#x", r, in.PC)
		}
	}
	if in.Class.IsMem() {
		if in.Size == 0 {
			return fmt.Errorf("isa: memory op with zero size at pc %#x", in.PC)
		}
		if in.Class == Load && in.Dest == RegNone {
			return fmt.Errorf("isa: load without destination at pc %#x", in.PC)
		}
	}
	if in.Class == Branch && in.Taken && in.Target == 0 {
		return fmt.Errorf("isa: taken branch without target at pc %#x", in.PC)
	}
	if in.Class == Store && in.Dest != RegNone {
		return fmt.Errorf("isa: store with destination at pc %#x", in.PC)
	}
	return nil
}

// String renders the instruction in a compact assembly-like form.
func (in *Inst) String() string {
	switch {
	case in.Class.IsMem():
		return fmt.Sprintf("%#x: %s %s,%s -> %s @%#x",
			in.PC, in.Class, RegName(in.Src1), RegName(in.Src2), RegName(in.Dest), in.Addr)
	case in.Class == Branch:
		dir := "nt"
		if in.Taken {
			dir = "t"
		}
		return fmt.Sprintf("%#x: %s %s,%s [%s -> %#x]",
			in.PC, in.Class, RegName(in.Src1), RegName(in.Src2), dir, in.Target)
	default:
		return fmt.Sprintf("%#x: %s %s,%s -> %s",
			in.PC, in.Class, RegName(in.Src1), RegName(in.Src2), RegName(in.Dest))
	}
}
