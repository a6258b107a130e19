package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// runtimeSample is the runtime/metrics counters the traced run reads.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes, gcCycles float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), totalCPU: v(1), allocBytes: v(2), gcCycles: v(3)}
}

// add accumulates the change between two readings.
func (r *runtimeSample) add(before, after runtimeSample) {
	r.gcCPU += after.gcCPU - before.gcCPU
	r.totalCPU += after.totalCPU - before.totalCPU
	r.allocBytes += after.allocBytes - before.allocBytes
	r.gcCycles += after.gcCycles - before.gcCycles
}

// runTraced is the per-layer run. Iterations come in pairs on the same
// input, one untraced and one traced, so the tracing overhead is a
// paired comparison that drift in host speed cannot bias. A traced
// iteration runs under a CPU profile with spans around every public
// call. Afterwards a timed drain of the workload's traces gives
// trace.next_ns, and on the sweeps a serial replay of the grid through
// Checkpoint.Fork gives the skip and warm metrics RunShard does not
// expose.
func (b *bench) runTraced(seconds int, spansDir string) (*result, error) {
	budget := time.Duration(seconds) * time.Second
	rec := newSpanRecorder()
	attr := &attribution{layer: map[string]int64{}, hot: map[string]int64{}}
	var (
		plain, traced []*iteration
		rt            runtimeSample // summed over the traced iterations
	)
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < budget {
		seed := b.seedFor(len(traced))
		b.spans = nil
		it, err := b.wl.iterate(b, seed)
		if err != nil {
			return nil, err
		}
		plain = append(plain, it)

		b.spans = rec
		var prof bytes.Buffer
		before := readRuntime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		it, err = b.wl.iterate(b, seed)
		pprof.StopCPUProfile()
		rt.add(before, readRuntime())
		if err != nil {
			return nil, err
		}
		traced = append(traced, it)
		if err := attr.add(prof.Bytes()); err != nil {
			return nil, err
		}
	}

	all := append(append([]*iteration(nil), plain...), traced...)
	var replay *iteration
	if b.isSweep() {
		var err error
		if replay, err = b.replaySweep(); err != nil {
			return nil, err
		}
		all = append(all, replay)
	}
	res := newResult(all)

	// The first traced iteration simulates the run seed's own input, so
	// its counts repeat exactly for a given seed.
	counts := traced[0].counts
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for _, l := range layers {
		res.put(l+".cpu_share", attr.share(l), "ratio")
	}
	for name := range hotFunctions {
		res.put(name+".cpu_share", attr.hotShare(name), "ratio")
	}

	res.put("core.promotions", counts["iq_promotions"], "count")
	res.put("core.chain_wire_assertions", counts["chain_wire_assertions"], "count")
	res.put("core.stall_nochain", counts["iq_stall_nochain"], "count")
	res.put("core.deadlock_recoveries", counts["deadlock_recoveries"], "count")
	res.put("pipeline.lsq_loads", counts["lsq_loads"], "count")
	res.put("pipeline.lsq_mshr_rejects", counts["lsq_mshr_rejects"], "count")
	res.put("pipeline.lsq_retry_ratio", ratio(counts["lsq_mshr_rejects"], counts["lsq_loads"]), "ratio")
	res.put("pipeline.branch_mispredicts", counts["branch_mispredicts"], "count")
	res.put("mem.l1d_accesses", counts["l1d_accesses"], "count")
	res.put("mem.l1d_miss_rate", ratio(counts["l1d_misses"], counts["l1d_accesses"]), "ratio")
	res.put("mem.mem_fetches", counts["mem_fetches"], "count")

	var instructions int64
	for _, it := range traced {
		instructions += it.instructions
	}
	res.put("runtime.gc_cpu_share", ratio(rt.gcCPU, rt.totalCPU), "ratio")
	res.put("runtime.alloc_bytes_per_inst", ratio(rt.allocBytes, float64(instructions)), "B/inst")
	res.put("runtime.gc_cycles", ratio(rt.gcCycles, float64(len(traced))), "count/iter")

	skipFrom, warmFrom := counts, traced
	if replay != nil {
		skipFrom, warmFrom = replay.counts, []*iteration{replay}
	}
	var warm []float64
	for _, it := range warmFrom {
		warm = append(warm, it.warm...)
	}
	res.put("sim.warm_s", median(warm), "s")
	res.put("sim.skip_cycle_ratio", ratio(skipFrom["skipped_cycles"], skipFrom["cycles"]), "ratio")
	res.put("sim.skip_windows", skipFrom["skip_windows"], "count")
	res.put("sim.prefix_shared_cycle_ratio", ratio(counts["prefix_shared_cycles"], counts["prefix_total_cycles"]), "ratio")
	res.put("sim.prefix_forked", counts["prefix_forked"], "count")
	res.put("sim.prefix_cold", counts["prefix_cold"], "count")

	var leaseRTT, completeRTT, upload, leases, idle []float64
	for _, it := range traced {
		if cs := it.coord; cs != nil {
			leaseRTT = append(leaseRTT, cs.leaseRTT...)
			completeRTT = append(completeRTT, cs.completeRTT...)
			upload = append(upload, float64(cs.uploadBytes))
			leases = append(leases, float64(cs.leases))
			idle = append(idle, cs.idle)
		}
	}
	res.put("coord.lease_rtt_ms", 1000*median(leaseRTT), "ms")
	res.put("coord.complete_rtt_ms", 1000*median(completeRTT), "ms")
	res.put("coord.upload_bytes", median(upload), "B")
	res.put("coord.leases", median(leases), "count")
	res.put("coord.worker_idle_s", median(idle), "s")

	nextNS, err := b.drainTraces()
	if err != nil {
		return nil, err
	}
	res.put("trace.next_ns", nextNS, "ns")

	var plainKIPS, tracedKIPS, pairRatio []float64
	for i := range traced {
		plainKIPS = append(plainKIPS, plain[i].kips())
		tracedKIPS = append(tracedKIPS, traced[i].kips())
		pairRatio = append(pairRatio, traced[i].kips()/plain[i].kips())
	}
	res.put("tracing.untraced_sim_kips", median(plainKIPS), "kinst/s")
	res.put("tracing.traced_sim_kips", median(tracedKIPS), "kinst/s")
	res.put("tracing.kips_ratio", median(pairRatio), "ratio")

	b.selfCheck(res)

	totals, err := b.spans.write(spansDir, fmt.Sprintf("spans-%s-seed%d.json", b.wl.name, b.runSeed))
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d pairs of untraced and traced iterations, %d profile samples; spans in %s",
		len(traced), attr.total, spansDir))
	for i, t := range totals {
		if i == 12 {
			break
		}
		res.notes = append(res.notes, fmt.Sprintf("span %-24s n=%-5d total=%9.3fs self=%9.3fs", t.name, t.count, t.total.Seconds(), t.self.Seconds()))
	}
	return res, nil
}

// selfCheck fails the run when attribution contradicts what the
// workload runs: no coordinator work outside sweep_coord, and no
// segmented-queue work on the ideal queue.
func (b *bench) selfCheck(res *result) {
	mustBeZero := []string{}
	if b.wl.name != "sweep_coord" {
		mustBeZero = append(mustBeZero, "coord.cpu_share", "coord.lease_rtt_ms", "coord.complete_rtt_ms",
			"coord.upload_bytes", "coord.leases", "coord.worker_idle_s")
	}
	if b.wl.name == "ideal_lsq" {
		mustBeZero = append(mustBeZero, "core.promotions", "core.chain_wire_assertions", "core.begin_cycle.cpu_share")
	}
	for _, name := range mustBeZero {
		if v := res.Metrics[name].Value; v != 0 {
			res.Correct = false
			res.notes = append(res.notes, fmt.Sprintf("SELF-CHECK FAILED: %s = %g on %s, want 0", name, v, b.wl.name))
		}
	}
}

// drainTraces times Next over the instructions one job consumes from
// each of the workload's traces, on fresh identical streams.
func (b *bench) drainTraces() (float64, error) {
	names := singleTraces
	if b.isSweep() {
		names = sweepBenchmarks
	}
	n := b.instructions() + b.warmup()
	var total time.Duration
	var calls int64
	for _, name := range names {
		s, err := trace.New(name, b.seedFor(0))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := int64(0); i < n; i++ {
			if _, ok := s.Next(); !ok {
				break
			}
			calls++
		}
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / float64(max(calls, 1)), nil
}

// fig2Configs rebuilds the reduced fig2 grid, keyed as experiments keys
// it, for the replay. The replay checks every result against the same
// pins as the sweep, so a drift between this copy and the grid fails.
func fig2Configs(wl string) map[string]sim.Config {
	cfgs := map[string]sim.Config{"ideal/" + wl: sim.DefaultConfig(sim.QueueIdeal, 512)}
	for _, chains := range []int{0, 128, 64} {
		label := "unlimited"
		if chains != 0 {
			label = fmt.Sprintf("%d chains", chains)
		}
		for _, v := range []struct {
			name     string
			hmp, lrp bool
		}{{"base", false, false}, {"hmp", true, false}, {"lrp", false, true}, {"comb", true, true}} {
			cfgs[fmt.Sprintf("%s/%s/%s", label, v.name, wl)] = sim.SegmentedConfig(512, chains, v.hmp, v.lrp)
		}
	}
	return cfgs
}

// replaySweep runs every grid point serially from one warm checkpoint
// per trace, as the sweep's checkpoint cache does, recording skip
// counters and warm time the sweep paths keep to themselves.
func (b *bench) replaySweep() (*iteration, error) {
	it := newIteration(b.seedFor(0))
	iterSpan := b.spans.start("replay", 0)
	defer b.spans.stop(iterSpan)
	for _, wl := range sweepBenchmarks {
		cfgs := fig2Configs(wl)
		t0 := time.Now()
		sp := b.spans.start("sim.NewCheckpoint", iterSpan)
		ck, err := sim.NewCheckpoint(cfgs["ideal/"+wl], sim.ContextSpec{Workload: wl, Seed: it.seed, Warm: b.sc.sweepWarm})
		b.spans.stop(sp)
		if err != nil {
			return nil, err
		}
		it.warm = append(it.warm, time.Since(t0).Seconds())
		for key, cfg := range cfgs {
			sp := b.spans.start("Checkpoint.Fork", iterSpan)
			p, err := ck.Fork(cfg)
			b.spans.stop(sp)
			if err != nil {
				return nil, err
			}
			sp = b.spans.start("Processor.Run", iterSpan)
			r, err := p.Run(b.sc.sweep)
			b.spans.stop(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			b.check(it, key, digest(r.Workload, r.QueueName, r.Instructions, r.Cycles, r.Stats.Values()))
			it.counts["cycles"] += float64(r.Cycles)
			it.counts["skipped_cycles"] += float64(p.SkippedCycles())
			it.counts["skip_windows"] += float64(p.SkipWindows())
		}
		ck.Release()
	}
	return it, nil
}
