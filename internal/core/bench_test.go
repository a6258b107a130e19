package core

import (
	"testing"
)

// BenchmarkSegmentedChains drives the paper's 512-entry, 128-chain queue
// (both predictors on) through a chained, load-missing synthetic stream:
// a third of the loads miss for 20-59 cycles, so promotion, chain-wire
// delivery, suspend/resume and self-timed countdowns across segment
// thresholds all run, unlike a stream of independent ALU operations. One
// op is a 4000-instruction program simulated to completion on a fresh
// queue; ns/cycle and the promotion and wire-assertion counts per op are
// reported alongside.
func BenchmarkSegmentedChains(b *testing.B) {
	cfg := DefaultConfig(512, 128)
	cfg.UseHMP, cfg.UseLRP = true, true
	var cycles int64
	var promotions, asserts float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := newOracleDriver(cfg, int64(i%4)+1, 4000, false)
		b.StartTimer()
		cycle := int64(1)
		for ; !d.done(); cycle++ {
			d.step(cycle)
		}
		cycles += cycle
		s := collect(d.q)
		promotions += s.MustGet("iq_promotions")
		asserts += s.MustGet("chain_wire_assertions")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
	b.ReportMetric(promotions/float64(b.N), "promotions/op")
	b.ReportMetric(asserts/float64(b.N), "wire-asserts/op")
}
