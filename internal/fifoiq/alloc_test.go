package fifoiq_test

import (
	"testing"

	"repro/internal/fifoiq"
	"repro/internal/isa"
	"repro/internal/uop"
)

// TestCycleLoopDoesNotAllocate pins the zero-allocation property of the
// dependence-FIFO queue's steady-state cycle loop: once the scratch
// buffers have grown to their working size, BeginCycle + Issue + EndCycle
// over a loaded queue must allocate nothing. (Issue candidates are
// offered but refused, so the queue stays loaded and no refill uops —
// which do allocate — are needed.)
func TestCycleLoopDoesNotAllocate(t *testing.T) {
	q := fifoiq.MustNew(fifoiq.DefaultConfig(128))
	var seq int64
	for i := 0; i < 128; i++ {
		in := isa.Inst{Class: isa.IntAlu, Src1: isa.RegNone, Src2: isa.RegNone, Dest: isa.Reg(1 + i%20)}
		if !q.Dispatch(0, uop.New(seq, in)) {
			break
		}
		seq++
	}
	refuse := func(*uop.UOp) bool { return false }
	cycle := int64(1)
	step := func() {
		q.BeginCycle(cycle)
		q.Issue(cycle, 8, refuse)
		q.EndCycle(cycle, true)
		cycle++
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Errorf("steady-state cycle loop allocates %.1f objects/cycle, want 0", avg)
	}
}
