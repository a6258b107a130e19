package fifoiq

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/uop"
)

func alu(seq int64, s1, s2, d isa.Reg) *uop.UOp {
	return uop.New(seq, isa.Inst{Class: isa.IntAlu, Src1: s1, Src2: s2, Dest: d})
}

func always(*uop.UOp) bool { return true }

func TestConfig(t *testing.T) {
	if DefaultConfig(64).FIFOs != 8 || DefaultConfig(64).Depth != 8 {
		t.Error("default geometry")
	}
	if DefaultConfig(4).FIFOs != 1 {
		t.Error("degenerate clamp")
	}
	if _, err := New(Config{FIFOs: 0, Depth: 8}); err == nil {
		t.Error("zero FIFOs accepted")
	}
	if _, err := New(Config{FIFOs: 8, Depth: 0}); err == nil {
		t.Error("zero depth accepted")
	}
	q := MustNew(DefaultConfig(64))
	if q.Name() != "fifos" || q.Capacity() != 64 || q.ExtraDispatchStages() != 0 {
		t.Error("identity")
	}
}

func TestSteeringBehindProducer(t *testing.T) {
	q := MustNew(Config{FIFOs: 4, Depth: 4})
	p := alu(0, isa.RegNone, isa.RegNone, 1)
	c := alu(1, 1, isa.RegNone, 2)
	c.Prod[0] = p
	if !q.Dispatch(0, p) || !q.Dispatch(0, c) {
		t.Fatal("dispatch failed")
	}
	// Both must be in the same FIFO, producer first.
	found := false
	for _, f := range q.fifos {
		if len(f) == 2 {
			if f[0] != p || f[1] != c {
				t.Fatal("order wrong")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("consumer not steered behind producer")
	}
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("fifo_steered") != 1 || s.MustGet("fifo_new") != 1 {
		t.Error("steering stats wrong")
	}
}

func TestIndependentInstructionsSpreadAcrossFIFOs(t *testing.T) {
	q := MustNew(Config{FIFOs: 3, Depth: 4})
	for i := int64(0); i < 3; i++ {
		if !q.Dispatch(0, alu(i, isa.RegNone, isa.RegNone, isa.Reg(i+1))) {
			t.Fatal("dispatch failed")
		}
	}
	for i, f := range q.fifos {
		if len(f) != 1 {
			t.Fatalf("fifo %d has %d entries", i, len(f))
		}
	}
	// A fourth independent instruction has no empty FIFO: stall.
	if q.Dispatch(0, alu(3, isa.RegNone, isa.RegNone, 9)) {
		t.Fatal("dispatch should stall with no empty FIFO")
	}
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("iq_stall_full") != 1 {
		t.Error("stall not counted")
	}
}

func TestOccupiedSuccessorSlotForcesNewFIFO(t *testing.T) {
	// Two consumers of the same producer: only the first can sit behind
	// it; the second needs an empty FIFO (the paper's §2 description).
	q := MustNew(Config{FIFOs: 3, Depth: 4})
	p := alu(0, isa.RegNone, isa.RegNone, 1)
	c1 := alu(1, 1, isa.RegNone, 2)
	c2 := alu(2, 1, isa.RegNone, 3)
	c1.Prod[0] = p
	c2.Prod[0] = p
	q.Dispatch(0, p)
	q.Dispatch(0, c1)
	q.Dispatch(0, c2)
	// c2 must be alone in its own FIFO (p's successor slot holds c1; c1
	// is now a tail but does not produce c2's operand).
	alone := 0
	for _, f := range q.fifos {
		if len(f) == 1 && f[0] == c2 {
			alone++
		}
	}
	if alone != 1 {
		t.Fatal("second consumer should claim an empty FIFO")
	}
}

func TestHeadsOnlyIssue(t *testing.T) {
	q := MustNew(Config{FIFOs: 2, Depth: 4})
	p := alu(0, isa.RegNone, isa.RegNone, 1)
	c := alu(1, 1, isa.RegNone, 2)
	c.Prod[0] = p
	q.Dispatch(0, p)
	q.Dispatch(0, c)

	got := q.Issue(1, 8, always)
	if len(got) != 1 || got[0] != p {
		t.Fatalf("cycle 1 issue = %v", got)
	}
	// c is now a head but unready until p completes.
	if got := q.Issue(2, 8, always); len(got) != 0 {
		t.Fatal("unready head issued")
	}
	p.Complete = 2
	if got := q.Issue(3, 8, always); len(got) != 1 || got[0] != c {
		t.Fatal("ready head did not issue")
	}
	if q.Len() != 0 {
		t.Error("len")
	}
}

func TestArtificialFIFODependence(t *testing.T) {
	// The design's structural weakness (§2): an instruction behind an
	// unready head cannot issue even when its own operands are ready.
	q := MustNew(Config{FIFOs: 1, Depth: 4})
	ghost := alu(99, isa.RegNone, isa.RegNone, 5)
	p := alu(0, isa.RegNone, isa.RegNone, 1)
	p.Prod[0] = ghost // never completes
	q.Dispatch(0, p)
	c := alu(1, 1, isa.RegNone, 2)
	c.Prod[0] = p
	q.Dispatch(0, c)
	// Pretend p's value arrived via another path... it cannot; instead
	// check c never issues while p blocks the head, even though we make
	// c's operand artificially ready.
	c.Prod[0] = nil
	for cycle := int64(1); cycle < 5; cycle++ {
		if got := q.Issue(cycle, 8, always); len(got) != 0 {
			t.Fatal("instruction issued past a blocked FIFO head")
		}
	}
}

func TestNoSameCycleIssue(t *testing.T) {
	q := MustNew(Config{FIFOs: 2, Depth: 2})
	u := alu(0, isa.RegNone, isa.RegNone, 1)
	q.Dispatch(5, u)
	if got := q.Issue(5, 8, always); len(got) != 0 {
		t.Fatal("issued in dispatch cycle")
	}
	if got := q.Issue(6, 8, always); len(got) != 1 {
		t.Fatal("should issue next cycle")
	}
}

func TestIssueWidthAndOldestFirst(t *testing.T) {
	q := MustNew(Config{FIFOs: 6, Depth: 2})
	for i := int64(5); i >= 0; i-- {
		q.Dispatch(0, alu(i, isa.RegNone, isa.RegNone, 1))
	}
	got := q.Issue(1, 3, always)
	if len(got) != 3 {
		t.Fatalf("issued %d", len(got))
	}
	for i, u := range got {
		if u.Seq != int64(i) {
			t.Fatalf("not oldest-first: %v", got)
		}
	}
}

func TestDepthLimitForcesNewFIFO(t *testing.T) {
	q := MustNew(Config{FIFOs: 2, Depth: 2})
	p := alu(0, isa.RegNone, isa.RegNone, 1)
	c1 := alu(1, 1, isa.RegNone, 1)
	c1.Prod[0] = p
	c2 := alu(2, 1, isa.RegNone, 1)
	c2.Prod[0] = c1
	q.Dispatch(0, p)
	q.Dispatch(0, c1) // fills FIFO 0 to depth 2
	q.Dispatch(0, c2) // tail c1 matches but FIFO full -> empty FIFO
	if len(q.fifos[1]) != 1 || q.fifos[1][0] != c2 {
		t.Fatal("depth-limited steering should spill to an empty FIFO")
	}
}

func TestStoreDataOperandDoesNotSteer(t *testing.T) {
	q := MustNew(Config{FIFOs: 3, Depth: 4})
	data := alu(0, isa.RegNone, isa.RegNone, 1)
	st := uop.New(1, isa.Inst{Class: isa.Store, Src1: 1, Src2: isa.RegNone, Size: 8})
	st.Prod[0] = data
	q.Dispatch(0, data)
	q.Dispatch(0, st)
	// The store must not be steered behind its data producer (only the
	// address gates the EA op), so it claims an empty FIFO.
	for _, f := range q.fifos {
		if len(f) == 2 {
			t.Fatal("store steered behind its data producer")
		}
	}
}

func TestNotificationsAreNoops(t *testing.T) {
	q := MustNew(DefaultConfig(32))
	u := alu(0, isa.RegNone, isa.RegNone, 1)
	q.NotifyLoadMiss(0, u)
	q.NotifyLoadComplete(0, u)
	q.Writeback(0, u)
	q.EndCycle(0, false)
	q.BeginCycle(1)
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("iq_dispatched") != 0 {
		t.Error("no-ops changed state")
	}
}
