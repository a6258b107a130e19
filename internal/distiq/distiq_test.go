package distiq

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/uop"
)

func alu(seq int64, s1, s2, d isa.Reg) *uop.UOp {
	return uop.New(seq, isa.Inst{Class: isa.IntAlu, Src1: s1, Src2: s2, Dest: d})
}

func load(seq int64, d isa.Reg) *uop.UOp {
	return uop.New(seq, isa.Inst{Class: isa.Load, Src1: isa.RegNone, Src2: isa.RegNone,
		Dest: d, Size: 8})
}

func always(*uop.UOp) bool { return true }

func TestConfig(t *testing.T) {
	cfg := DefaultConfig(704)
	if cfg.Lines != 56 || cfg.LineWidth != 12 || cfg.WaitBuffer != 32 {
		t.Errorf("default geometry: %+v", cfg)
	}
	for _, bad := range []Config{
		{Lines: 0, LineWidth: 12, WaitBuffer: 32, PredictedLoadLatency: 4},
		{Lines: 8, LineWidth: 0, WaitBuffer: 32, PredictedLoadLatency: 4},
		{Lines: 8, LineWidth: 12, WaitBuffer: 0, PredictedLoadLatency: 4},
		{Lines: 8, LineWidth: 12, WaitBuffer: 32, PredictedLoadLatency: 0},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("bad config accepted: %+v", bad)
		}
	}
	q := MustNew(DefaultConfig(128))
	if q.Name() != "distance" || q.ExtraDispatchStages() != 1 {
		t.Error("identity")
	}
	if q.Capacity() != 32+8*12 {
		t.Errorf("capacity = %d", q.Capacity())
	}
}

func TestPredictableFlowsThroughArray(t *testing.T) {
	q := MustNew(Config{Lines: 8, LineWidth: 12, WaitBuffer: 4, PredictedLoadLatency: 4})
	q.BeginCycle(0)
	u := alu(0, isa.RegNone, isa.RegNone, 1)
	if !q.Dispatch(0, u) {
		t.Fatal("dispatch failed")
	}
	if len(q.wait) != 0 {
		t.Fatal("ready instruction should not wait")
	}
	q.BeginCycle(1)
	if got := q.Issue(1, 8, always); len(got) != 1 || got[0] != u {
		t.Fatalf("issue = %v", got)
	}
	if q.Len() != 0 {
		t.Error("len")
	}
}

func TestLoadDependentWaits(t *testing.T) {
	// §2: "Instructions whose ready time cannot be accurately predicted
	// (e.g., due to dependence on an outstanding load) are held in this
	// buffer until their ready time is known."
	q := MustNew(Config{Lines: 8, LineWidth: 12, WaitBuffer: 4, PredictedLoadLatency: 4})
	q.BeginCycle(0)
	ld := load(0, 1)
	q.Dispatch(0, ld)
	con := alu(1, 1, isa.RegNone, 2)
	con.Prod[0] = ld
	q.Dispatch(0, con)
	if len(q.wait) != 1 || q.wait[0] != con {
		t.Fatalf("load dependent should wait: %v", q.wait)
	}
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("dist_waited") != 1 {
		t.Error("wait stat")
	}

	// The load issues and completes: its table row resolves, and the
	// consumer moves into the array with an exact ready time.
	q.BeginCycle(1)
	if got := q.Issue(1, 8, always); len(got) != 1 || got[0] != ld {
		t.Fatalf("load issue = %v", got)
	}
	ld.Complete = 30
	q.NotifyLoadComplete(30, ld)
	q.BeginCycle(2)
	if len(q.wait) != 0 {
		t.Fatal("resolved dependent still waiting")
	}
	// It must not issue before cycle 30... drive the protocol.
	for c := int64(3); c < 30; c++ {
		q.BeginCycle(c)
		if got := q.Issue(c, 8, always); len(got) != 0 {
			t.Fatalf("issued at %d before the load's data (%v)", c, got)
		}
	}
	issued := false
	for c := int64(30); c <= 40 && !issued; c++ {
		q.BeginCycle(c)
		if got := q.Issue(c, 8, always); len(got) == 1 && got[0] == con {
			issued = true
		}
	}
	if !issued {
		t.Fatal("consumer never issued after resolution")
	}
}

func TestWaitBufferFullStallsDispatch(t *testing.T) {
	// The distance scheme's structural weakness: everything behind a
	// string of unpredictable instructions stalls at dispatch.
	q := MustNew(Config{Lines: 8, LineWidth: 12, WaitBuffer: 2, PredictedLoadLatency: 4})
	q.BeginCycle(0)
	ld := load(0, 1)
	q.Dispatch(0, ld)
	for i := int64(1); i <= 2; i++ {
		c := alu(i, 1, isa.RegNone, 2)
		c.Prod[0] = ld
		if !q.Dispatch(0, c) {
			t.Fatalf("wait slot %d rejected", i)
		}
	}
	blocked := alu(3, 1, isa.RegNone, 3)
	blocked.Prod[0] = ld
	if q.Dispatch(0, blocked) {
		t.Fatal("dispatch should stall on a full wait buffer")
	}
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("iq_stall_full") != 1 {
		t.Error("stall stat")
	}
}

func TestTransitiveUnpredictability(t *testing.T) {
	// A consumer of a *waiting* instruction is itself unpredictable.
	q := MustNew(Config{Lines: 8, LineWidth: 12, WaitBuffer: 8, PredictedLoadLatency: 4})
	q.BeginCycle(0)
	ld := load(0, 1)
	q.Dispatch(0, ld)
	c1 := alu(1, 1, isa.RegNone, 2)
	c1.Prod[0] = ld
	q.Dispatch(0, c1)
	c2 := alu(2, 2, isa.RegNone, 3)
	c2.Prod[0] = c1
	q.Dispatch(0, c2)
	if len(q.wait) != 2 {
		t.Fatalf("transitive dependent should wait too: %d waiting", len(q.wait))
	}
}

func TestOrderInversionRecovered(t *testing.T) {
	// Force a producer into a later row than its consumer (spill) and
	// check the straggler relocation un-wedges the head row.
	q := MustNew(Config{Lines: 3, LineWidth: 1, WaitBuffer: 4, PredictedLoadLatency: 4})
	q.BeginCycle(0)
	// Producer with a long predictable latency lands deep; its row is
	// width-1, so a second long instruction spills further.
	p := uop.New(0, isa.Inst{Class: isa.FpDiv, Src1: isa.RegNone, Src2: isa.RegNone, Dest: isa.FpReg(1)})
	q.Dispatch(0, p)
	// Consumer: predicted ready far out but rows are tiny; placement is
	// approximate. Construct the inversion directly: dispatch a ready
	// instruction, then manually stuff the head row situation by driving
	// cycles — the important property is global: the queue never wedges.
	c := alu(1, isa.FpReg(1), isa.RegNone, 2)
	c.Prod[0] = p
	q.Dispatch(0, c)
	issued := 0
	for cycle := int64(1); cycle <= 80 && issued < 2; cycle++ {
		q.BeginCycle(cycle)
		for _, u := range q.Issue(cycle, 8, always) {
			issued++
			u.Complete = cycle + int64(u.Latency())
			q.Writeback(u.Complete, u)
		}
		q.EndCycle(cycle, true)
	}
	if issued != 2 {
		t.Fatalf("queue wedged: %d/2 issued", issued)
	}
}

func TestStoreDataDoesNotGate(t *testing.T) {
	q := MustNew(DefaultConfig(128))
	q.BeginCycle(0)
	ld := load(0, 1)
	q.Dispatch(0, ld)
	st := uop.New(1, isa.Inst{Class: isa.Store, Src1: 1, Src2: isa.RegNone, Size: 8})
	st.Prod[0] = ld // data from an outstanding load
	q.Dispatch(0, st)
	if len(q.wait) != 0 {
		t.Fatal("store gated by its data operand")
	}
}

func TestNoopsAndStats(t *testing.T) {
	q := MustNew(DefaultConfig(128))
	u := alu(0, isa.RegNone, isa.RegNone, 1)
	q.NotifyLoadMiss(0, u)
	q.EndCycle(0, false)
	// Writeback of the current producer releases the row.
	q.BeginCycle(0)
	q.Dispatch(0, u)
	if !q.avail[1].valid {
		t.Fatal("row not set")
	}
	q.Writeback(5, u)
	if q.avail[1].valid {
		t.Fatal("row not released")
	}
	s := stats.NewSet()
	q.CollectStats(s)
	for _, k := range []string{"iq_dispatched", "iq_issued", "iq_stall_full", "dist_waited"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("missing stat %s", k)
		}
	}
}
