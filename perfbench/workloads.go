package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scale fixes the simulated work of one job: committed instructions
// measured and instructions fast-forwarded before measuring, for the
// single-run workloads and for the sweep grid points.
type scale struct {
	name               string
	single, singleWarm int64
	sweep, sweepWarm   int64
}

var (
	// fullScale is what the benchmark measures. On a 2-vCPU x86 host a
	// single-run job is 0.1–1 s of detailed simulation and the 26-job
	// sweep 0.5–1.5 s through the local pool, depending on host load.
	fullScale = scale{name: "full", single: 100_000, singleWarm: 300_000, sweep: 40_000, sweepWarm: 300_000}
	// tinyScale keeps the benchmark's own tests fast.
	tinyScale = scale{name: "tiny", single: 2_000, singleWarm: 5_000, sweep: 2_000, sweepWarm: 5_000}
)

// sweepBenchmarks are the traces of the reduced Figure 2 grid: the
// ideal queue plus twelve segmented configurations on each.
var sweepBenchmarks = []string{"gcc", "twolf"}

// singleTraces are the traces the single-run workloads simulate in
// sequence: swim streams FP misses, ammp chases pointers.
var singleTraces = []string{"swim", "ammp"}

// workload is one named input set. Single-run workloads simulate
// singleTraces on cfg; sweeps run the reduced fig2 grid.
type workload struct {
	name string
	// pins names the pinned digest table the results are checked
	// against; both sweeps share "fig2".
	pins string
	cfg  func() sim.Config
	// iterate runs one timed iteration on the given input seed.
	iterate func(b *bench, seed uint64) (*iteration, error)
}

var workloads = map[string]*workload{
	"seg_chains":  {name: "seg_chains", pins: "seg_chains", cfg: segChainsConfig, iterate: (*bench).singleIteration},
	"ideal_lsq":   {name: "ideal_lsq", pins: "ideal_lsq", cfg: idealConfig, iterate: (*bench).singleIteration},
	"sweep_local": {name: "sweep_local", pins: "fig2", iterate: (*bench).localSweepIteration},
	"sweep_coord": {name: "sweep_coord", pins: "fig2", iterate: (*bench).coordSweepIteration},
}

func segChainsConfig() sim.Config { return sim.SegmentedConfig(512, 128, true, true) }
func idealConfig() sim.Config     { return sim.DefaultConfig(sim.QueueIdeal, 512) }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench holds one run's settings and, in a traced run, its recorders.
type bench struct {
	wl *workload
	sc scale
	// runSeed is the run's seed; iteration i simulates input seed
	// seedFor(i).
	runSeed  uint64
	parallel int
	pins     pinFile
	workDir  string
	// spans is nil unless the run is traced.
	spans *spanRecorder
}

// seedFor returns iteration i's input seed. Iterations walk the pinned
// seeds from the run's own, so every run averages over the same inputs
// and two runs differ in which input comes first, not in what they
// measure.
func (b *bench) seedFor(i int) uint64 { return inputSeed(b.runSeed + uint64(i)) }

func (b *bench) isSweep() bool { return b.wl.cfg == nil }

func (b *bench) instructions() int64 {
	if b.isSweep() {
		return b.sc.sweep
	}
	return b.sc.single
}

func (b *bench) warmup() int64 {
	if b.isSweep() {
		return b.sc.sweepWarm
	}
	return b.sc.singleWarm
}

// concurrency is the most simulations the workload runs at once.
func (b *bench) concurrency() int {
	if b.isSweep() {
		return b.parallel
	}
	return 1
}

func (b *bench) sweepOptions(seed uint64) experiments.Options {
	return experiments.Options{
		Instructions: b.sc.sweep,
		Warmup:       b.sc.sweepWarm,
		Seed:         seed,
		Benchmarks:   sweepBenchmarks,
		Parallel:     b.parallel,
	}
}

// iteration is what one timed iteration measured.
type iteration struct {
	seed uint64 // input seed
	// instructions are the committed instructions simulated, summed
	// over jobs; simSeconds the host seconds they took (the detailed
	// runs of a single-run workload, the wall time of a sweep).
	instructions int64
	simSeconds   float64
	setup        []float64 // host seconds of each set-up
	jobs         []float64 // host seconds of each job
	attempted    int
	failed       int
	// counts are per-layer counters summed over the iteration's jobs.
	counts map[string]float64
	// warm holds host seconds of each warm fast-forward.
	warm []float64
	// coord is set on sweep_coord iterations.
	coord *coordSweep
}

func newIteration(seed uint64) *iteration {
	return &iteration{seed: seed, counts: map[string]float64{}}
}

func (it *iteration) kips() float64 {
	return float64(it.instructions) / it.simSeconds / 1000
}

// check compares one job's digest with its pin and counts the job.
func (b *bench) check(it *iteration, job string, d string) {
	it.attempted++
	if want := b.pins.lookup(b.wl.pins, b.sc.name, it.seed, job); d != want {
		it.failed++
		fmt.Printf("# MISMATCH %s seed %d job %s: digest %s, pinned %q\n", b.wl.name, it.seed, job, d, want)
	}
}

// singleIteration simulates every single-run trace in sequence:
// trace.New, sim.New and Processor.Warm are set-up, Processor.Run is
// the detailed simulation.
func (b *bench) singleIteration(seed uint64) (*iteration, error) {
	it := newIteration(seed)
	cfg := b.wl.cfg()
	iterSpan := b.spans.start("iteration", 0)
	defer b.spans.stop(iterSpan)
	for _, name := range singleTraces {
		jobSpan := b.spans.start("job "+name, iterSpan)
		t0 := time.Now()
		sp := b.spans.start("trace.New", jobSpan)
		s, err := trace.New(name, seed)
		b.spans.stop(sp)
		if err != nil {
			return nil, err
		}
		sp = b.spans.start("sim.New", jobSpan)
		p, err := sim.New(cfg, s)
		b.spans.stop(sp)
		if err != nil {
			return nil, err
		}
		sp = b.spans.start("Processor.Warm", jobSpan)
		tw := time.Now()
		p.Warm(s, b.sc.singleWarm)
		t1 := time.Now()
		b.spans.stop(sp)
		sp = b.spans.start("Processor.Run", jobSpan)
		r, err := p.Run(b.sc.single)
		t2 := time.Now()
		b.spans.stop(sp)
		b.spans.stop(jobSpan)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		it.setup = append(it.setup, t1.Sub(t0).Seconds())
		it.warm = append(it.warm, t1.Sub(tw).Seconds())
		it.jobs = append(it.jobs, t2.Sub(t1).Seconds())
		it.simSeconds += t2.Sub(t1).Seconds()
		it.instructions += r.Instructions
		b.check(it, name, digest(r.Workload, r.QueueName, r.Instructions, r.Cycles, r.Stats.Values()))
		addCounts(it.counts, r.Stats.Values())
		it.counts["skipped_cycles"] += float64(p.SkippedCycles())
		it.counts["skip_windows"] += float64(p.SkipWindows())
	}
	return it, nil
}

// localSweepIteration runs the grid through experiments.RunShard with
// the local pool. RunShard returns only when the whole grid is done, so
// the sweep is the one job this path lets a caller time.
func (b *bench) localSweepIteration(seed uint64) (*iteration, error) {
	it := newIteration(seed)
	o := b.sweepOptions(seed)
	o.PrefixStats = &sim.PrefixStats{}
	iterSpan := b.spans.start("iteration", 0)
	defer b.spans.stop(iterSpan)

	var plan []experiments.JobSpec
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		sp := b.spans.start("experiments.GridPlan", iterSpan)
		_, p, err := experiments.GridPlan(o, "fig2")
		b.spans.stop(sp)
		if err != nil {
			return nil, err
		}
		it.setup = append(it.setup, time.Since(t0).Seconds())
		plan = p
	}
	t1 := time.Now()
	sp := b.spans.start("experiments.RunShard", iterSpan)
	sf, err := experiments.RunShard(o, "fig2", 0, 1)
	t2 := time.Now()
	b.spans.stop(sp)
	if err != nil {
		return nil, err
	}
	it.jobs = append(it.jobs, t2.Sub(t1).Seconds())
	it.simSeconds = t2.Sub(t1).Seconds()
	if err := b.checkShard(it, sf, plan); err != nil {
		return nil, err
	}
	ps := o.PrefixStats
	it.counts["prefix_shared_cycles"] = float64(ps.SharedCycles.Load())
	it.counts["prefix_total_cycles"] = float64(ps.TotalCycles.Load())
	it.counts["prefix_forked"] = float64(ps.Shared.Load())
	it.counts["prefix_cold"] = float64(ps.Fallbacks.Load())
	return it, nil
}

// checkShard checks every grid point of a sweep's shard file against
// its pin, counts its instructions and adds its statistics to the
// iteration's per-layer counts. The serialized file must also match the
// pinned digest of the single-process RunShard(0,1) file of the same
// grid and seed, byte for byte; if it does not, every job of the sweep
// fails.
func (b *bench) checkShard(it *iteration, sf *experiments.ShardFile, plan []experiments.JobSpec) error {
	for _, j := range plan {
		r, ok := sf.Results[j.Key]
		if !ok {
			it.attempted++
			it.failed++
			fmt.Printf("# MISSING %s seed %d job %s\n", b.wl.name, it.seed, j.Key)
			continue
		}
		it.instructions += r.Instructions
		b.check(it, j.Key, digest(r.Workload, r.QueueName, r.Instructions, r.Cycles, r.Stats))
		addCounts(it.counts, r.Stats)
	}
	file, err := sf.MarshalPretty()
	if err != nil {
		return err
	}
	if got, want := fileDigest(file), b.pins.lookup(filePins, b.sc.name, it.seed, fileJob); got != want {
		fmt.Printf("# MISMATCH %s seed %d: shard file digest %s, single-process file pinned %q\n", b.wl.name, it.seed, got, want)
		it.failed = it.attempted
	}
	return nil
}

// addCounts sums the simulator statistics the per-layer metrics use.
func addCounts(dst, stats map[string]float64) {
	for _, k := range []string{
		"cycles", "iq_promotions", "chain_wire_assertions", "iq_stall_nochain",
		"deadlock_recoveries", "lsq_loads", "lsq_mshr_rejects", "branch_mispredicts",
		"l1d_accesses", "mem_fetches",
	} {
		dst[k] += stats[k]
	}
	dst["l1d_misses"] += stats["l1d_accesses"] * stats["l1d_miss_rate"]
}

// measure runs iterations until the budget is spent, at least one.
func (b *bench) measure(budget time.Duration) ([]*iteration, error) {
	var its []*iteration
	start := time.Now()
	for len(its) == 0 || time.Since(start) < budget {
		it, err := b.wl.iterate(b, b.seedFor(len(its)))
		if err != nil {
			return nil, err
		}
		its = append(its, it)
	}
	return its, nil
}

// runEndToEnd is the untraced run: every end-to-end metric.
func (b *bench) runEndToEnd(seconds int) (*result, error) {
	its, err := b.measure(time.Duration(seconds) * time.Second)
	if err != nil {
		return nil, err
	}
	rss := maxRSSMB()
	res := newResult(its)
	// Each job metric is a median over iterations of one statistic of
	// the iteration's jobs. Pooling the jobs instead would put the median
	// between swim's and ammp's clusters on the single-run workloads.
	var kips, setup, typical, slowest []float64
	jobs := 0
	for _, it := range its {
		kips = append(kips, it.kips())
		setup = append(setup, it.setup...)
		typical = append(typical, median(it.jobs))
		slowest = append(slowest, maxOf(it.jobs))
		jobs += len(it.jobs)
	}
	res.put("sim_kips", median(kips), "kinst/s")
	res.put("job_p50_s", median(typical), "s")
	res.put("job_max_s", median(slowest), "s")
	res.put("setup_s", median(setup), "s")
	res.put("max_rss_mb", rss, "MB")
	res.notes = append(res.notes, fmt.Sprintf("%d iterations, %d jobs, %d set-ups; sim_kips and the job metrics are medians over iterations",
		len(its), jobs, len(setup)))
	return res, nil
}

// newResult totals the job accounting of a run's iterations.
func newResult(its []*iteration) *result {
	res := &result{Metrics: map[string]metric{}}
	for _, it := range its {
		res.Attempted += it.attempted
		res.Failed += it.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}
