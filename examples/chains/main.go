// Chains: a step-by-step walkthrough of Figure 1 of the paper. The nine-
// instruction example sequence is dispatched into a three-segment queue;
// the program prints each instruction's delay value (matching Figure
// 1(a)) and then steps the queue, showing promotions, issue, self-timing,
// and the final issue schedule respecting the two dependence chains.
//
//	go run ./examples/chains
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/uop"
)

func main() {
	// Figure 1(a): ADD latency 1, MUL latency 2 (modelled with the
	// 2-cycle FpAdd class). Operands marked * are available.
	none := isa.Reg(isa.RegNone)
	add := func(s1, s2, d isa.Reg) isa.Inst { return isa.Inst{Class: isa.IntAlu, Src1: s1, Src2: s2, Dest: d} }
	mul := func(s1, s2, d isa.Reg) isa.Inst { return isa.Inst{Class: isa.FpAdd, Src1: s1, Src2: s2, Dest: d} }
	prog := []isa.Inst{
		add(none, none, 1), // i0: add *,*  -> r1
		mul(none, none, 2), // i1: mul *,*  -> r2
		add(2, none, 4),    // i2: add r2,* -> r4
		mul(4, none, 6),    // i3: mul r4,* -> r6
		mul(6, none, 8),    // i4: mul r6,* -> r8
		add(1, none, 3),    // i5: add r1,* -> r3
		add(3, none, 5),    // i6: add r3,* -> r5
		add(5, none, 7),    // i7: add r5,* -> r7
		add(6, 7, 9),       // i8: add r6,r7 -> r9
	}

	cfg := core.Config{
		Segments: 3, SegSize: 16, IssueWidth: 8,
		Pushdown: true, Bypass: true, DeadlockRecovery: true,
		PredictedLoadLatency: 4,
	}
	q := core.MustNew(cfg)

	// A tiny renamer: producer edges by architectural register.
	last := map[isa.Reg]*uop.UOp{}
	var uops []*uop.UOp
	for i, in := range prog {
		u := uop.New(int64(i), in)
		for j, src := range []isa.Reg{in.Src1, in.Src2} {
			if src != isa.RegNone {
				if p, ok := last[src]; ok {
					u.Prod[j] = p
				}
			}
		}
		if in.HasDest() {
			last[in.Dest] = u
		}
		uops = append(uops, u)
	}

	fmt.Println("Figure 1(a): dispatch-time delay values")
	fmt.Println("  inst                      delay (paper)")
	paper := []int{0, 0, 2, 3, 5, 1, 2, 3, 5}
	for i, u := range uops {
		if !q.Dispatch(0, u) {
			panic("dispatch stalled")
		}
		op := "add"
		if u.Inst.Class == isa.FpAdd {
			op = "mul"
		}
		fmt.Printf("  i%d: %s %s,%s -> %s%-6s  %d     (%d)\n", i, op,
			isa.RegName(u.Inst.Src1), isa.RegName(u.Inst.Src2), isa.RegName(u.Inst.Dest),
			"", q.DelayOf(u), paper[i])
	}

	fmt.Println("\nStepping the queue (issue width 8, thresholds 2/4/6):")
	issued := map[*uop.UOp]int64{}
	for cycle := int64(1); len(issued) < len(uops) && cycle < 30; cycle++ {
		q.BeginCycle(cycle)
		got := q.Issue(cycle, 8, func(*uop.UOp) bool { return true })
		for _, u := range got {
			issued[u] = cycle
			u.Complete = cycle + int64(u.Latency())
			q.Writeback(u.Complete, u)
		}
		q.EndCycle(cycle, true)
		fmt.Printf("  cycle %2d: issued %v   segments", cycle, names(got, uops))
		for k := 0; k < cfg.Segments; k++ {
			fmt.Printf("  s%d=%d", k, q.SegmentLen(k))
		}
		fmt.Println()
	}

	fmt.Println("\nIssue schedule:")
	for i, u := range uops {
		fmt.Printf("  i%d issued at cycle %d\n", i, issued[u])
	}
	fmt.Println("\nNote i5 issues back-to-back after i0 (single-cycle chain), while")
	fmt.Println("i2..i4 wait on the longer mul chain — the two chains of Figure 1(b).")
}

func names(got []*uop.UOp, all []*uop.UOp) []string {
	var out []string
	for _, g := range got {
		for i, u := range all {
			if u == g {
				out = append(out, fmt.Sprintf("i%d", i))
			}
		}
	}
	if out == nil {
		out = []string{}
	}
	return out
}
