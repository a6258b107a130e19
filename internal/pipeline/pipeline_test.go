package pipeline

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/uop"
)

func alu(seq int64, s1, s2, d isa.Reg) *uop.UOp {
	return uop.New(seq, isa.Inst{Class: isa.IntAlu, Src1: s1, Src2: s2, Dest: d})
}

func TestRenamerEdges(t *testing.T) {
	r := NewRenamer()
	p := alu(0, isa.RegNone, isa.RegNone, 1)
	r.Rename(p, 0)
	c := alu(1, 1, 2, 3)
	r.Rename(c, 0)
	if c.Prod[0] != p {
		t.Fatal("producer edge missing")
	}
	if c.Prod[1] != nil {
		t.Fatal("register with no in-flight producer must have no edge")
	}
	// A completed producer whose result is already available: no edge.
	p.Complete = 5
	c2 := alu(2, 1, isa.RegNone, 4)
	r.Rename(c2, 10)
	if c2.Prod[0] != nil {
		t.Fatal("edge to long-completed producer")
	}
	// Completed but in the future (data still arriving): edge retained.
	p2 := alu(3, isa.RegNone, isa.RegNone, 5)
	r.Rename(p2, 10)
	p2.Complete = 20
	c3 := alu(4, 5, isa.RegNone, 6)
	r.Rename(c3, 12)
	if c3.Prod[0] != p2 {
		t.Fatal("edge to future-completing producer missing")
	}
}

func TestRenamerZeroRegisterAndIdempotence(t *testing.T) {
	r := NewRenamer()
	w := alu(0, isa.RegNone, isa.RegNone, isa.RegZero) // write to r31: discarded
	r.Rename(w, 0)
	c := alu(1, isa.RegZero, isa.RegNone, 2)
	r.Rename(c, 0)
	if c.Prod[0] != nil {
		t.Fatal("zero register must always read ready")
	}
	// Self-referencing update (r1 = r1 + 1) renamed twice (dispatch retry)
	// must not create a self-edge.
	p := alu(2, isa.RegNone, isa.RegNone, 1)
	r.Rename(p, 0)
	u := alu(3, 1, isa.RegNone, 1)
	r.Rename(u, 0)
	r.Rename(u, 1) // retry
	if u.Prod[0] != p {
		t.Fatalf("retry broke renaming: %v", u.Prod[0])
	}
}

func TestROBOrdering(t *testing.T) {
	r := NewROB(4)
	if r.Head() != nil {
		t.Fatal("empty head")
	}
	var us []*uop.UOp
	for i := int64(0); i < 4; i++ {
		u := alu(i, isa.RegNone, isa.RegNone, 1)
		us = append(us, u)
		r.Push(u)
	}
	if !r.Full() || r.Len() != 4 || r.Capacity() != 4 {
		t.Fatal("fill state wrong")
	}
	// Only the head may retire, and only once complete.
	us[1].Complete = 1
	us[2].Complete = 1
	if n := r.Commit(5, 8, func(*uop.UOp) {}); n != 0 {
		t.Fatal("retired past incomplete head")
	}
	us[0].Complete = 3
	var committed []*uop.UOp
	if n := r.Commit(5, 2, func(u *uop.UOp) { committed = append(committed, u) }); n != 2 {
		t.Fatalf("committed %d, want width 2", n)
	}
	if committed[0] != us[0] || committed[1] != us[1] {
		t.Fatal("commit order wrong")
	}
	// Completion in the future does not retire yet.
	us[3].Complete = 100
	if n := r.Commit(5, 8, func(*uop.UOp) {}); n != 1 {
		t.Fatal("future-completing instruction retired early")
	}
	if r.Len() != 1 {
		t.Fatal("len")
	}
	// Ring wrap: push after pops.
	r.Push(alu(9, isa.RegNone, isa.RegNone, 1))
	if r.Len() != 2 {
		t.Fatal("wrap push failed")
	}
}

func TestROBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("push into full ROB must panic")
		}
	}()
	r := NewROB(1)
	r.Push(alu(0, isa.RegNone, isa.RegNone, 1))
	r.Push(alu(1, isa.RegNone, isa.RegNone, 1))
}

func TestFUPoolMapping(t *testing.T) {
	cases := map[isa.Class]int{
		isa.IntAlu: poolIntAlu, isa.Load: poolIntAlu, isa.Store: poolIntAlu,
		isa.Branch: poolIntAlu, isa.IntMul: poolIntMul, isa.IntDiv: poolIntMul,
		isa.FpAdd: poolFpAdd, isa.FpMul: poolFpMul, isa.FpDiv: poolFpMul,
		isa.FpSqrt: poolFpMul,
	}
	for c, want := range cases {
		if got := poolOf(c); got != want {
			t.Errorf("poolOf(%s) = %d, want %d", c, got, want)
		}
	}
}

func TestFUPoolPipelinedThroughput(t *testing.T) {
	f := NewFUPool(8)
	// Eight ALU ops per cycle fit; the ninth does not.
	for i := 0; i < 8; i++ {
		if !f.TryIssue(0, alu(int64(i), isa.RegNone, isa.RegNone, 1)) {
			t.Fatalf("ALU issue %d rejected", i)
		}
	}
	if f.TryIssue(0, alu(8, isa.RegNone, isa.RegNone, 1)) {
		t.Fatal("ninth ALU op accepted")
	}
	if f.StructuralStalls() != 1 {
		t.Fatal("structural stall not counted")
	}
	// Next cycle all units are free again (fully pipelined).
	if !f.TryIssue(1, alu(9, isa.RegNone, isa.RegNone, 1)) {
		t.Fatal("pipelined unit not free next cycle")
	}
}

func TestFUPoolUnpipelinedDivide(t *testing.T) {
	f := NewFUPool(2)
	div := func(seq int64) *uop.UOp {
		return uop.New(seq, isa.Inst{Class: isa.FpDiv, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1})
	}
	if !f.TryIssue(0, div(0)) || !f.TryIssue(0, div(1)) {
		t.Fatal("two dividers should accept")
	}
	// Both units busy for 12 cycles; an FpMul shares the pool and is
	// rejected meanwhile.
	mul := uop.New(2, isa.Inst{Class: isa.FpMul, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1})
	if f.TryIssue(5, mul) {
		t.Fatal("pool accepted work while occupied by divides")
	}
	if !f.TryIssue(12, mul) {
		t.Fatal("units should free at cycle 12")
	}
	if got := f.Issued(); got[poolFpMul] != 3 {
		t.Fatalf("pool counts = %v", got)
	}
}
