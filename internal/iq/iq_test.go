package iq

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/uop"
)

func alu(seq int64, src1, src2, dest isa.Reg) *uop.UOp {
	return uop.New(seq, isa.Inst{Class: isa.IntAlu, Src1: src1, Src2: src2, Dest: dest})
}

func always(*uop.UOp) bool { return true }

func TestConventionalBasics(t *testing.T) {
	q := NewConventional(4)
	if q.Name() != "ideal" || q.Capacity() != 4 || q.Len() != 0 {
		t.Fatal("ctor state wrong")
	}
	if q.ExtraDispatchStages() != 0 {
		t.Error("conventional IQ has no extra dispatch stage")
	}
}

func TestConventionalCapacityStall(t *testing.T) {
	q := NewConventional(2)
	for i := int64(0); i < 2; i++ {
		if !q.Dispatch(0, alu(i, isa.RegNone, isa.RegNone, 1)) {
			t.Fatalf("dispatch %d rejected", i)
		}
	}
	if q.Dispatch(0, alu(2, isa.RegNone, isa.RegNone, 1)) {
		t.Fatal("dispatch into full queue accepted")
	}
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("iq_full_stalls") != 1 {
		t.Error("full stall not counted")
	}
}

func TestConventionalIssueOldestReadyFirst(t *testing.T) {
	q := NewConventional(8)
	// u0 ready; u1 depends on u0; u2 ready.
	u0 := alu(0, isa.RegNone, isa.RegNone, 1)
	u1 := alu(1, 1, isa.RegNone, 2)
	u1.Prod[0] = u0
	u2 := alu(2, isa.RegNone, isa.RegNone, 3)
	for _, u := range []*uop.UOp{u0, u1, u2} {
		q.Dispatch(0, u)
	}
	q.BeginCycle(1)
	got := q.Issue(1, 8, always)
	if len(got) != 2 || got[0] != u0 || got[1] != u2 {
		t.Fatalf("issued %v", got)
	}
	if u0.IssueCycle != 1 {
		t.Error("issue cycle not stamped")
	}
	// u0 completes at 2 (1-cycle ALU): model the pipeline doing so.
	u0.Complete = 2
	q.BeginCycle(2)
	got = q.Issue(2, 8, always)
	if len(got) != 1 || got[0] != u1 {
		t.Fatalf("dependent issue = %v", got)
	}
	if q.Len() != 0 {
		t.Error("queue should be empty")
	}
}

func TestConventionalNoSameCycleIssue(t *testing.T) {
	q := NewConventional(8)
	u := alu(0, isa.RegNone, isa.RegNone, 1)
	q.Dispatch(5, u)
	if got := q.Issue(5, 8, always); len(got) != 0 {
		t.Fatal("instruction issued in its dispatch cycle")
	}
	if got := q.Issue(6, 8, always); len(got) != 1 {
		t.Fatal("instruction should issue the next cycle")
	}
}

func TestConventionalIssueWidthLimit(t *testing.T) {
	q := NewConventional(16)
	for i := int64(0); i < 10; i++ {
		q.Dispatch(0, alu(i, isa.RegNone, isa.RegNone, 1))
	}
	got := q.Issue(1, 4, always)
	if len(got) != 4 {
		t.Fatalf("issued %d, want width limit 4", len(got))
	}
	for i, u := range got {
		if u.Seq != int64(i) {
			t.Fatalf("issue order not oldest-first: %v", got)
		}
	}
	if q.Len() != 6 {
		t.Errorf("remaining = %d", q.Len())
	}
}

func TestConventionalFunctionUnitRejection(t *testing.T) {
	q := NewConventional(8)
	u0 := uop.New(0, isa.Inst{Class: isa.IntDiv, Src1: isa.RegNone, Src2: isa.RegNone, Dest: 1})
	u1 := alu(1, isa.RegNone, isa.RegNone, 2)
	q.Dispatch(0, u0)
	q.Dispatch(0, u1)
	// Divider busy: reject divs, accept ALU.
	got := q.Issue(1, 8, func(u *uop.UOp) bool { return u.Inst.Class != isa.IntDiv })
	if len(got) != 1 || got[0] != u1 {
		t.Fatalf("issued %v, want only the ALU op", got)
	}
	if q.Len() != 1 {
		t.Error("rejected op should remain queued")
	}
}

func TestConventionalStats(t *testing.T) {
	q := NewConventional(8)
	u0 := alu(0, isa.RegNone, isa.RegNone, 1)
	u1 := alu(1, 1, isa.RegNone, 2)
	u1.Prod[0] = u0
	q.Dispatch(0, u0)
	q.Dispatch(0, u1)
	q.BeginCycle(1) // occupancy 2, ready 1
	q.Issue(1, 8, always)
	s := stats.NewSet()
	q.CollectStats(s)
	if s.MustGet("iq_dispatched") != 2 || s.MustGet("iq_issued") != 1 {
		t.Errorf("counts wrong: %s", s)
	}
	if s.MustGet("iq_occupancy_avg") != 2 {
		t.Errorf("occupancy = %v", s.MustGet("iq_occupancy_avg"))
	}
	if s.MustGet("iq_ready_avg") != 1 {
		t.Errorf("ready = %v", s.MustGet("iq_ready_avg"))
	}
}

func TestConventionalNotificationsAreNoops(t *testing.T) {
	q := NewConventional(4)
	u := alu(0, isa.RegNone, isa.RegNone, 1)
	// Must not panic or change state.
	q.NotifyLoadMiss(0, u)
	q.NotifyLoadComplete(0, u)
	q.Writeback(0, u)
	q.EndCycle(0, false)
	if q.Len() != 0 {
		t.Error("no-ops changed state")
	}
}

// checkSlots compares the conventional queue's slot space with a packed
// reference: the resident instructions in age order. Every live slot must
// map back to its handle and carry the instruction's ready and store
// bits; holes and the space above the top slot carry none.
func checkSlots(t *testing.T, q *Conventional, ref []*uop.UOp, when string) {
	t.Helper()
	if q.live != len(ref) || q.Len() != len(ref) {
		t.Fatalf("%s: %d live, reference holds %d", when, q.live, len(ref))
	}
	if n := len(q.slots); n > 0 && (q.slots[n-1] < 0 || q.slots[q.first] < 0) {
		t.Fatalf("%s: slot space not trimmed (first %d, len %d)", when, q.first, n)
	}
	k := 0
	for i, h := range q.slots {
		ready, store := bitvec.Test(q.readyW, i), bitvec.Test(q.storeW, i)
		if h < 0 {
			if ready || store {
				t.Fatalf("%s: hole %d has a bit set", when, i)
			}
			continue
		}
		if i < q.first {
			t.Fatalf("%s: live slot %d below first %d", when, i, q.first)
		}
		u := q.byH[h]
		if k >= len(ref) || u != ref[k] {
			t.Fatalf("%s: slot %d holds %v, reference position %d", when, i, u, k)
		}
		k++
		if q.posOf[h] != int32(i) {
			t.Fatalf("%s: handle %d in slot %d, posOf %d", when, h, i, q.posOf[h])
		}
		if ready != u.IssueReady(q.now) || store != u.IsStore() {
			t.Fatalf("%s: slot %d (%v) ready %v store %v, want %v %v", when, i, u, ready, store, u.IssueReady(q.now), u.IsStore())
		}
	}
	if k != len(ref) {
		t.Fatalf("%s: %d live slots, reference holds %d", when, k, len(ref))
	}
	if i := bitvec.NextSet(q.readyW, len(q.slots)); i >= 0 {
		t.Fatalf("%s: ready bit %d above the top slot", when, i)
	}
	if i := bitvec.NextSet(q.storeW, len(q.slots)); i >= 0 {
		t.Fatalf("%s: store bit %d above the top slot", when, i)
	}
}

// TestConventionalSlotSpace drives the queue with a two-context stream —
// each context dispatches in its own order, so one context's instruction
// often lands below the other's younger ones — and checks the slot space
// against a packed reference after every Dispatch, Issue, wakeup and
// BeginCycle, across many compactions.
func TestConventionalSlotSpace(t *testing.T) {
	for _, capacity := range []int{8, 100, 512} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(capacity), 7))
			q := NewConventional(capacity)
			type flight struct {
				u  *uop.UOp
				at int64
			}
			var (
				ref      []*uop.UOp
				inFlight []flight
				recent   [2][]*uop.UOp
				seq      [2]int64
				pending  [2]*uop.UOp
				compacts int
			)
			classes := []isa.Class{isa.IntAlu, isa.IntAlu, isa.IntMul, isa.Load, isa.Store}
			gen := func(th int) *uop.UOp {
				in := isa.Inst{Class: classes[r.IntN(len(classes))], Src1: 1, Src2: 2, Dest: 3}
				if in.Class == isa.Store {
					in.Dest = isa.RegNone
				}
				u := uop.New(2*seq[th]+int64(th), in)
				seq[th]++
				for j := range u.Prod {
					if n := len(recent[th]); n > 0 && r.IntN(3) > 0 {
						if p := recent[th][n-1-r.IntN(min(n, 6))]; p.Inst.HasDest() {
							u.Prod[j] = p
						}
					}
				}
				recent[th] = append(recent[th], u)
				return u
			}
			for c := int64(1); c <= 3000; c++ {
				kept := inFlight[:0]
				for _, f := range inFlight {
					if f.at != c {
						kept = append(kept, f)
						continue
					}
					if f.u.IsLoad() {
						f.u.Complete = c
						q.NotifyLoadComplete(c, f.u)
					}
					q.Writeback(c, f.u)
					checkSlots(t, q, ref, fmt.Sprintf("cycle %d writeback %v", c, f.u))
				}
				inFlight = kept
				q.BeginCycle(c)
				checkSlots(t, q, ref, fmt.Sprintf("cycle %d BeginCycle", c))

				got := q.Issue(c, 1+r.IntN(8), func(*uop.UOp) bool { return r.IntN(4) > 0 })
				for _, u := range got {
					i := slices.Index(ref, u)
					ref = slices.Delete(ref, i, i+1)
					at := c + int64(u.Latency())
					switch {
					case u.IsLoad():
						at += int64(1 + r.IntN(30))
					case !u.IsStore():
						u.Complete = at
					}
					inFlight = append(inFlight, flight{u, at})
				}
				checkSlots(t, q, ref, fmt.Sprintf("cycle %d Issue", c))

				for k := r.IntN(6); k > 0; k-- {
					th := r.IntN(2)
					if pending[th] == nil {
						pending[th] = gen(th)
					}
					u := pending[th]
					first := q.first
					if !q.Dispatch(c, u) {
						break
					}
					if q.first == 0 && first > 0 {
						compacts++
					}
					pending[th] = nil
					if len(q.slots) > 2*(q.live-1)+64 {
						t.Fatalf("cycle %d: %d slots for %d residents: compaction missed", c, len(q.slots), q.live)
					}
					i, _ := slices.BinarySearchFunc(ref, u, func(a, b *uop.UOp) int { return cmp.Compare(a.Seq, b.Seq) })
					ref = slices.Insert(ref, i, u)
					checkSlots(t, q, ref, fmt.Sprintf("cycle %d Dispatch %v", c, u))
				}
			}
			if compacts == 0 {
				t.Error("the run never compacted the slot space")
			}
		})
	}
}
