package trace

import "repro/internal/isa"

// This file defines the eight SPEC CPU2000-like synthetic workloads used by
// the paper's evaluation. Each reproduces the characteristics that drive
// the paper's results for that benchmark (see DESIGN.md §2):
//
//	swim    FP streaming over >L2 arrays; almost all loads miss L1, most as
//	        delayed hits; enormous memory-level parallelism for a big window.
//	mgrid   FP stencil resident in L2; high ILP, low L2 miss rate, heavy
//	        chain usage, near-perfect branches.
//	applu   FP solver streaming through L2 with a loop-carried recurrence
//	        and occasional divides.
//	equake  sparse FP: indirect loads into a large array; highest chain
//	        demand, memory bound.
//	ammp    FP pointer-chasing over an L2-resident pool with per-node
//	        computation and occasional square roots.
//	gcc     integer, branchy and unpredictable, tiny working set, low ILP;
//	        gains nothing from a large window.
//	twolf   integer pointer-chasing, moderately predictable branches,
//	        modest window benefit.
//	vortex  integer, highly predictable branches, small working set, low
//	        queue occupancy.
//
// All generators are deterministic functions of their seed.

const (
	kb = 1 << 10
	mb = 1 << 20
)

// streamCursor walks a region with a fixed stride, wrapping at the end.
type streamCursor struct {
	base   uint64
	size   uint64
	stride uint64
	off    uint64
	last   uint64
}

// next returns the current address and advances the cursor.
func (c *streamCursor) next() uint64 {
	c.last = c.base + c.off
	c.off += c.stride
	if c.off >= c.size {
		c.off = 0
	}
	return c.last
}

// rel returns an address at a byte offset from the last next() result.
func (c *streamCursor) rel(d int64) uint64 { return uint64(int64(c.last) + d) }

// randCursor jumps to a uniformly random aligned slot in a region; rel
// addresses fields within the most recent slot. It models pointer-chasing
// and indirect (gather) access.
type randCursor struct {
	r     *rng
	base  uint64
	slots int
	align uint64
	last  uint64
}

func newRandCursor(r *rng, base, size, align uint64) *randCursor {
	return &randCursor{r: r, base: base, slots: int(size / align), align: align}
}

func (c *randCursor) next() uint64 {
	c.last = c.base + uint64(c.r.intn(c.slots))*c.align
	return c.last
}

func (c *randCursor) rel(d int64) uint64 { return uint64(int64(c.last) + d) }

// loopTaken returns a branch outcome callback that is taken n-1 times and
// then not taken once, repeating — a counted inner loop.
func loopTaken(n int) func() bool {
	i := 0
	return func() bool {
		i++
		if i >= n {
			i = 0
			return false
		}
		return true
	}
}

// probTaken returns a branch outcome callback taken with probability p.
func probTaken(r *rng, p float64) func() bool {
	return func() bool { return r.prob(p) }
}

// mixSeed perturbs the user seed per benchmark so that two benchmarks with
// the same seed do not share random sequences.
func mixSeed(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ h
}

// Frequently used registers. r31 is the hardwired zero; r30/f30 act as
// never-written "constant" registers (always ready).
var (
	rInd   = isa.IntReg(1) // primary induction variable
	rInd2  = isa.IntReg(2) // secondary induction variable
	rIdx   = isa.IntReg(3) // loaded index (indirection)
	rPtr   = isa.IntReg(4) // pointer-chase register
	rPtr2  = isa.IntReg(5) // second pointer-chase register
	rT0    = isa.IntReg(6)
	rT1    = isa.IntReg(7)
	rT2    = isa.IntReg(8)
	rT3    = isa.IntReg(9)
	rCond  = isa.IntReg(10) // branch condition
	rConst = isa.IntReg(30) // never written: always-ready constant

)

func f(n int) isa.Reg { return isa.FpReg(n) }

var fConst = f(30) // never written: always-ready FP constant

// NewSwim builds the swim-like workload: FP shallow-water stencil streaming
// through four 4 MB arrays. Nearly every load misses the L1; most are
// delayed hits on in-flight lines, and line leaders miss the L2 as well,
// so performance is bounded by how many memory accesses the window can
// overlap — the paper's prime example of a benchmark that scales to a
// 512-entry IQ.
func NewSwim(seed uint64) Stream {
	_ = newRNG(mixSeed(seed, "swim")) // swim is fully regular; rng unused
	u := &streamCursor{base: 0x1000_0000, size: 4 * mb, stride: 16}
	v := &streamCursor{base: 0x2000_0000, size: 4 * mb, stride: 16}
	p := &streamCursor{base: 0x3000_0000, size: 4 * mb, stride: 16}
	un := &streamCursor{base: 0x4000_0000, size: 4 * mb, stride: 16}

	b := newKernel("swim", 0x41_0000)
	b.block("top")
	b.op(isa.IntAlu, rInd, rInd, rConst) // i += stride
	b.load(f(0), rInd, 8, u.next)
	b.load(f(1), rInd, 8, func() uint64 { return u.rel(8) })
	b.load(f(2), rInd, 8, v.next)
	b.load(f(3), rInd, 8, func() uint64 { return v.rel(8) })
	b.load(f(4), rInd, 8, p.next)
	b.op(isa.FpAdd, f(5), f(0), f(1))
	b.op(isa.FpAdd, f(6), f(2), f(3))
	b.op(isa.FpMul, f(7), f(5), f(4))
	b.op(isa.FpAdd, f(8), f(7), f(6))
	b.op(isa.FpMul, f(9), f(8), fConst)
	b.store(f(9), rInd, 8, un.next)
	b.branch(rCond, "top", loopTaken(1000))
	return b.mustBuild()
}

// NewMgrid builds the mgrid-like workload: a multigrid relaxation stencil
// over an L2-resident 128 KB grid. Line-leader loads miss the L1 but hit
// the L2, branches are nearly perfect, and each iteration carries two
// independent FP reduction trees — very high ILP and the heaviest
// per-instruction chain usage.
func NewMgrid(seed uint64) Stream {
	_ = newRNG(mixSeed(seed, "mgrid"))
	a := &streamCursor{base: 0x1_1000_0000, size: 128 * kb, stride: 64}
	c := &streamCursor{base: 0x1_2000_0000, size: 128 * kb, stride: 64}

	b := newKernel("mgrid", 0x42_0000)
	b.block("top")
	b.op(isa.IntAlu, rInd, rInd, rConst)
	b.load(f(0), rInd, 8, a.next)
	b.load(f(1), rInd, 8, func() uint64 { return a.rel(8) })
	b.load(f(2), rInd, 8, func() uint64 { return a.rel(16) })
	b.load(f(3), rInd, 8, func() uint64 { return a.rel(8192) })
	b.load(f(4), rInd, 8, func() uint64 { return a.rel(-8192) })
	b.load(f(5), rInd, 8, func() uint64 { return a.rel(24) })
	b.op(isa.FpAdd, f(6), f(0), f(1))
	b.op(isa.FpAdd, f(7), f(2), f(3))
	b.op(isa.FpAdd, f(8), f(4), f(5))
	b.op(isa.FpMul, f(9), f(6), fConst)
	b.op(isa.FpMul, f(10), f(7), fConst)
	b.op(isa.FpAdd, f(11), f(9), f(10))
	b.op(isa.FpAdd, f(12), f(11), f(8))
	b.store(f(12), rInd, 8, c.next)
	b.branch(rCond, "top", loopTaken(2000))
	return b.mustBuild()
}

// NewApplu builds the applu-like workload: an SSOR-style FP solver
// sweeping three 256 KB planes that wrap within a measured sample (so the
// sweeps re-hit the L2 after warm-up) with a loop-carried recurrence and
// an occasional divide — the mixed-latency FP benchmark of the set.
func NewApplu(seed uint64) Stream {
	r := newRNG(mixSeed(seed, "applu"))
	a := &streamCursor{base: 0x2_1000_0000, size: 256 * kb, stride: 40}
	c := &streamCursor{base: 0x2_2000_0000, size: 256 * kb, stride: 40}
	d := &streamCursor{base: 0x2_3000_0000, size: 256 * kb, stride: 40}

	b := newKernel("applu", 0x43_0000)
	b.block("top")
	b.op(isa.IntAlu, rInd, rInd, rConst)
	b.load(f(0), rInd, 8, a.next)
	b.load(f(1), rInd, 8, func() uint64 { return a.rel(8) })
	b.load(f(2), rInd, 8, c.next)
	b.load(f(3), rInd, 8, func() uint64 { return c.rel(16) })
	b.op(isa.FpMul, f(4), f(0), f(2))
	b.op(isa.FpMul, f(5), f(1), f(3))
	b.op(isa.FpAdd, f(6), f(4), f(5))
	// Loop-carried recurrence: f20 accumulates across iterations.
	b.op(isa.FpAdd, f(20), f(20), f(6))
	b.branch(rCond, "nodiv", probTaken(r, 31.0/32))
	b.block("div")
	b.op(isa.FpDiv, f(21), f(20), fConst)
	b.op(isa.FpAdd, f(20), f(21), fConst)
	b.block("nodiv")
	b.op(isa.FpMul, f(7), f(6), fConst)
	b.store(f(7), rInd, 8, d.next)
	b.branch(rCond, "top", loopTaken(500))
	return b.mustBuild()
}

// NewEquake builds the equake-like workload: sparse matrix-vector product.
// A small streaming index array feeds indirect loads scattered across an
// 8 MB value array and a 2 MB vector; most indirect loads miss the L2.
// Every element is an indirection (two outstanding operands), giving this
// benchmark the highest chain demand in the suite, as in the paper's
// Table 2.
func NewEquake(seed uint64) Stream {
	r := newRNG(mixSeed(seed, "equake"))
	idx := &streamCursor{base: 0x3_1000_0000, size: 256 * kb, stride: 4}
	data := newRandCursor(r, 0x3_2000_0000, 8*mb, 8)
	x := newRandCursor(r, 0x3_3000_0000, 2*mb, 8)
	y := &streamCursor{base: 0x3_4000_0000, size: 1 * mb, stride: 8}

	b := newKernel("equake", 0x44_0000)
	b.block("row")
	b.op(isa.IntAlu, rInd2, rInd2, rConst) // row pointer update
	b.op(isa.FpMul, f(10), fConst, fConst) // reset accumulator (fresh value)
	b.block("top")
	b.op(isa.IntAlu, rInd, rInd, rConst) // column index++
	b.load(rIdx, rInd, 4, idx.next)      // col = colidx[i]   (streams, mostly hits)
	b.load2(f(0), rConst, rIdx, 8, data.next)
	b.load2(f(1), rConst, rIdx, 8, x.next)
	b.op(isa.FpMul, f(2), f(0), f(1))
	b.op(isa.FpAdd, f(10), f(10), f(2)) // serial accumulate within a row
	b.branch(rCond, "top", loopTaken(8))
	b.block("end")
	b.store(f(10), rInd2, 8, y.next) // y[row] = acc
	b.branch(rCond, "row", loopTaken(64))
	return b.mustBuild()
}

// NewAmmp builds the ammp-like workload: molecular-dynamics force
// computation. An outer serial pointer chase walks an L2-resident 512 KB
// atom pool; for each atom an inner loop evaluates six neighbours with
// independent FP loads (mutually independent across iterations — the
// neighbour-level parallelism a large window exposes), an FP tree, an
// occasional square root (distance), and a store back to the atom. Low
// L2 miss rate, high chain usage and queue occupancy, and a window
// benefit bounded by the serial chase — the paper's ammp profile.
func NewAmmp(seed uint64) Stream {
	r := newRNG(mixSeed(seed, "ammp"))
	pool := newRandCursor(r, 0x4_1000_0000, 512*kb, 128)
	nbr := newRandCursor(r, 0x4_2000_0000, 512*kb, 64)

	b := newKernel("ammp", 0x45_0000)
	b.block("top")
	b.load(rPtr, rPtr, 8, pool.next) // atom = atom->next (serial chase)
	b.op(isa.IntAlu, rInd2, rPtr, rConst)
	b.op(isa.FpMul, f(20), fConst, fConst) // reset force accumulator
	b.block("nbr")
	b.load(f(0), rInd2, 8, nbr.next) // neighbour coordinates (independent)
	b.load(f(1), rInd2, 8, func() uint64 { return nbr.rel(8) })
	b.op(isa.FpMul, f(2), f(0), f(1))
	b.op(isa.FpMul, f(3), f(0), fConst)
	b.op(isa.FpAdd, f(4), f(2), f(3))
	b.op(isa.FpAdd, f(20), f(20), f(4)) // accumulate force
	b.branch(rCond, "nbr", loopTaken(6))
	b.block("dist")
	b.branch(rCond, "nosqrt", probTaken(r, 15.0/16))
	b.block("sqrt")
	b.op(isa.FpSqrt, f(6), f(20), isa.RegNone)
	b.op(isa.FpAdd, f(20), f(6), fConst)
	b.block("nosqrt")
	b.op(isa.FpMul, f(7), f(20), fConst)
	b.store(f(7), rPtr, 8, func() uint64 { return pool.rel(32) })
	b.op(isa.IntAlu, rCond, rPtr, rConst)
	b.branch(rCond, "top", loopTaken(64))
	return b.mustBuild()
}

// NewGcc builds the gcc-like workload: low-ILP integer code over a tiny
// (48 KB, L1-resident) working set with frequent, poorly predictable
// branches. As in the paper, its performance is misprediction-bound and
// a larger instruction window buys essentially nothing.
func NewGcc(seed uint64) Stream {
	r := newRNG(mixSeed(seed, "gcc"))
	ws := newRandCursor(r, 0x5_1000_0000, 48*kb, 8)
	tbl := newRandCursor(r, 0x5_2000_0000, 16*kb, 8)

	b := newKernel("gcc", 0x46_0000)
	b.block("top")
	b.load(rT0, rInd, 8, ws.next)
	b.op(isa.IntAlu, rT1, rT0, rConst) // serial chain on loaded value
	b.op(isa.IntAlu, rT2, rT1, rT1)
	b.op(isa.IntAlu, rCond, rT2, rConst)
	b.branch(rCond, "else", probTaken(r, 0.7)) // data-dependent: poorly predictable
	b.block("then")
	b.load(rT3, rCond, 8, tbl.next)
	b.op(isa.IntAlu, rT0, rT3, rT2)
	b.store(rT0, rT3, 8, ws.next)
	b.block("else")
	b.op(isa.IntAlu, rInd, rInd, rConst)
	b.op(isa.IntAlu, rT1, rInd, rT0)
	b.branch(rT1, "skip", probTaken(r, 0.15)) // second data-dependent branch
	b.block("mul")
	b.op(isa.IntMul, rT2, rT1, rConst)
	b.op(isa.IntAlu, rT0, rT2, rT0)
	b.block("skip")
	b.op(isa.IntAlu, rCond, rInd, rConst)
	b.branch(rCond, "top", loopTaken(16))
	return b.mustBuild()
}

// NewTwolf builds the twolf-like workload: place-and-route style integer
// pointer chasing through a 256 KB pool (L1 misses, L2 hits) with
// moderately biased data-dependent branches. The serial chase bounds ILP,
// so window growth beyond a couple hundred entries stops paying, as the
// paper observes for twolf.
func NewTwolf(seed uint64) Stream {
	r := newRNG(mixSeed(seed, "twolf"))
	pool := newRandCursor(r, 0x6_1000_0000, 256*kb, 64)
	pool2 := newRandCursor(r, 0x6_2000_0000, 256*kb, 64)

	b := newKernel("twolf", 0x47_0000)
	b.block("top")
	b.load(rPtr, rPtr, 8, pool.next)    // serial chase
	b.load(rPtr2, rPtr2, 8, pool2.next) // second independent chase (MLP=2)
	b.load(rT0, rPtr, 8, func() uint64 { return pool.rel(8) })
	b.op(isa.IntAlu, rT1, rT0, rPtr2)
	b.op(isa.IntAlu, rCond, rT1, rConst)
	b.branch(rCond, "noswap", probTaken(r, 0.82))
	b.block("swap")
	b.op(isa.IntAlu, rT2, rT1, rConst)
	b.store(rT2, rPtr, 8, func() uint64 { return pool.rel(16) })
	b.block("noswap")
	b.op(isa.IntAlu, rInd, rInd, rConst)
	b.branch(rInd, "top", loopTaken(48))
	return b.mustBuild()
}

// NewVortex builds the vortex-like workload: object-database lookups with
// a short serial hash computation, mostly-L1-resident tables, and highly
// predictable branches. Queue occupancy stays low (short dependence
// chains drain quickly), matching the paper's description of vortex.
func NewVortex(seed uint64) Stream {
	r := newRNG(mixSeed(seed, "vortex"))
	keys := &streamCursor{base: 0x7_1000_0000, size: 128 * kb, stride: 8}
	table := newRandCursor(r, 0x7_2000_0000, 192*kb, 64)
	heap := newRandCursor(r, 0x7_3000_0000, 1536*kb, 64)

	b := newKernel("vortex", 0x48_0000)
	b.block("top")
	b.op(isa.IntAlu, rInd, rInd, rConst)
	b.load(rT0, rInd, 8, keys.next) // key (streams, hits)
	b.op(isa.IntAlu, rT1, rT0, rConst)
	b.op(isa.IntAlu, rT2, rT1, rT0) // short serial hash
	b.load(rT3, rT2, 8, table.next) // bucket probe
	b.op(isa.IntAlu, rCond, rT3, rT0)
	b.branch(rCond, "found", probTaken(r, 0.95))
	b.block("miss")
	b.load(rPtr, rT3, 8, heap.next) // overflow chain (rare, may hit L2)
	b.op(isa.IntAlu, rCond, rPtr, rT0)
	b.block("found")
	b.op(isa.IntAlu, rT1, rCond, rConst)
	b.branch(rT1, "nostore", probTaken(r, 0.9))
	b.block("update")
	b.store(rT1, rT3, 8, func() uint64 { return table.rel(8) })
	b.block("nostore")
	b.branch(rInd, "top", loopTaken(32))
	return b.mustBuild()
}
