// Package iqtest provides a conformance and fuzz harness for iq.Queue
// implementations: it drives a queue through the simulator's per-cycle
// protocol with randomly generated dependence DAGs and checks the
// invariants every scheduler must uphold —
//
//   - conservation: every accepted instruction is in the queue or issued,
//     exactly once;
//   - correctness: nothing issues before its operands' completion times
//     (the address operand only, for stores);
//   - liveness: once all producers complete, everything drains within a
//     bounded number of cycles (deadlock recovery included).
//
// Each queue package runs it against its own implementation.
package iqtest

import (
	"testing"

	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/uop"
)

// rng is a local SplitMix64 (testing determinism, no package deps).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Options scales the fuzz run.
type Options struct {
	// Instructions per round.
	Instructions int
	// Rounds with different random DAGs.
	Rounds int
	// LoadMissLatency is the simulated miss turnaround.
	LoadMissLatency int64
	// MaxCycles bounds one round (liveness check).
	MaxCycles int64
	// IssueWidth and DispatchWidth of the simulated machine.
	IssueWidth, DispatchWidth int
}

// DefaultOptions returns a moderate fuzz configuration.
func DefaultOptions() Options {
	return Options{
		Instructions:    400,
		Rounds:          12,
		LoadMissLatency: 60,
		MaxCycles:       200_000,
		IssueWidth:      8,
		DispatchWidth:   8,
	}
}

// Fuzz drives queues built by mk through random DAGs.
func Fuzz(t *testing.T, mk func() iq.Queue, o Options) {
	t.Helper()
	for round := 0; round < o.Rounds; round++ {
		fuzzRound(t, mk(), o, uint64(round)*7919+1)
		if t.Failed() {
			return
		}
	}
}

// buildProg generates a random renamed program: a DAG over architectural
// registers with most-recent-writer producer edges.
func buildProg(r *rng, n int) []*uop.UOp {
	prog := make([]*uop.UOp, n)
	reg := func() isa.Reg { return isa.Reg(1 + r.intn(20)) }
	for i := range prog {
		var in isa.Inst
		in.PC = 0x1000 + uint64(4*i)
		in.Src1, in.Src2, in.Dest = isa.RegNone, isa.RegNone, isa.RegNone
		switch r.intn(10) {
		case 0, 1, 2: // load
			in.Class = isa.Load
			in.Src1 = reg()
			in.Dest = reg()
			in.Size = 8
			in.Addr = uint64(0x10000 + r.intn(1<<16))
		case 3: // store
			in.Class = isa.Store
			in.Src1 = reg()
			in.Src2 = reg()
			in.Size = 8
			in.Addr = uint64(0x10000 + r.intn(1<<16))
		case 4: // branch
			in.Class = isa.Branch
			in.Src1 = reg()
		default: // ALU with 1-2 sources
			in.Class = isa.IntAlu
			in.Src1 = reg()
			if r.intn(2) == 0 {
				in.Src2 = reg()
			}
			in.Dest = reg()
		}
		prog[i] = uop.New(int64(i), in)
	}
	last := map[isa.Reg]*uop.UOp{}
	for _, u := range prog {
		for j := 0; j < 2; j++ {
			src := u.Src(j)
			if src == isa.RegNone || src == isa.RegZero {
				continue
			}
			if p, ok := last[src]; ok {
				u.Prod[j] = p
			}
		}
		if u.Inst.HasDest() {
			last[u.Inst.Dest] = u
		}
	}
	return prog
}

func fuzzRound(t *testing.T, q iq.Queue, o Options, seed uint64) {
	t.Helper()
	r := &rng{s: seed}
	prog := buildProg(r, o.Instructions)

	type pending struct {
		u  *uop.UOp
		at int64 // completion time to apply
	}
	var inFlight []pending
	issuedSet := make(map[*uop.UOp]bool)
	next := 0
	issuedCount := 0
	dispatched := 0

	for cycle := int64(1); ; cycle++ {
		if cycle > o.MaxCycles {
			t.Fatalf("seed %d: liveness violated: %d/%d issued after %d cycles (queue %s len %d)",
				seed, issuedCount, len(prog), cycle, q.Name(), q.Len())
		}
		// Apply completions due this cycle.
		kept := inFlight[:0]
		for _, pf := range inFlight {
			if pf.at <= cycle {
				pf.u.Complete = pf.at
				if pf.u.IsLoad() {
					q.NotifyLoadComplete(cycle, pf.u)
				}
				q.Writeback(cycle, pf.u)
				continue
			}
			kept = append(kept, pf)
		}
		inFlight = kept

		q.BeginCycle(cycle)

		got := q.Issue(cycle, o.IssueWidth, func(*uop.UOp) bool { return true })
		for _, u := range got {
			if issuedSet[u] {
				t.Fatalf("seed %d: %v issued twice", seed, u)
			}
			issuedSet[u] = true
			issuedCount++
			if !u.IssueReady(cycle) {
				t.Fatalf("seed %d: %v issued before ready at cycle %d", seed, u, cycle)
			}
			switch {
			case u.IsLoad():
				u.EADone = cycle + 1
				lat := int64(5)
				if r.intn(3) == 0 { // a miss
					lat = o.LoadMissLatency
					q.NotifyLoadMiss(cycle+1, u)
					u.MemKind = uop.MemMiss
				} else {
					u.MemKind = uop.MemHit
				}
				inFlight = append(inFlight, pending{u: u, at: cycle + lat})
			case u.IsStore():
				u.EADone = cycle + 1
				inFlight = append(inFlight, pending{u: u, at: cycle + 1})
			default:
				inFlight = append(inFlight, pending{u: u, at: cycle + int64(u.Latency())})
			}
		}

		// In-order dispatch with stall-and-retry.
		for w := 0; w < o.DispatchWidth && next < len(prog); w++ {
			if !q.Dispatch(cycle, prog[next]) {
				break
			}
			dispatched++
			next++
		}

		// Conservation.
		if q.Len() != dispatched-issuedCount {
			t.Fatalf("seed %d: conservation violated: len %d, dispatched %d, issued %d",
				seed, q.Len(), dispatched, issuedCount)
		}

		machineActive := len(inFlight) > 0
		q.EndCycle(cycle, machineActive)

		if issuedCount == len(prog) {
			if q.Len() != 0 {
				t.Fatalf("seed %d: queue reports %d entries after full drain", seed, q.Len())
			}
			return
		}
	}
}
