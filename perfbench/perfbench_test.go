package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare
// against: the metric names every run must report.
type benchmarkFile struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyBench(t *testing.T, name string, pins pinFile) *bench {
	t.Helper()
	if pins == nil {
		var err error
		if pins, err = loadPins(); err != nil {
			t.Fatal(err)
		}
	}
	return &bench{wl: workloads[name], sc: tinyScale, runSeed: 1, parallel: runtime.NumCPU(), pins: pins, workDir: t.TempDir()}
}

// TestTinySmoke runs one iteration of every workload at the tiny scale:
// every job must match its pin, and every end-to-end metric must be
// reported and positive.
func TestTinySmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := tinyBench(t, name, nil).runEndToEnd(0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range bf.EndToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v (reported %v), want > 0", m.Name, v, ok)
				}
			}
			if len(res.Metrics) != len(bf.EndToEnd) {
				t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(bf.EndToEnd))
			}
		})
	}
}

// TestPlantedDigestFails plants a wrong digest for one job of a
// single-run workload and one grid point of the sweeps: each run must
// count failed jobs and report itself incorrect.
func TestPlantedDigestFails(t *testing.T) {
	for _, c := range []struct{ workload, job string }{
		{"seg_chains", "ammp"},
		{"sweep_local", "ideal/gcc"},
		{"sweep_coord", "128 chains/comb/twolf"},
	} {
		t.Run(c.workload, func(t *testing.T) {
			pins, err := loadPins()
			if err != nil {
				t.Fatal(err)
			}
			table := workloads[c.workload].pins
			if pins.lookup(table, "tiny", 1, c.job) == "" {
				t.Fatalf("no tiny pin for %s %s", table, c.job)
			}
			pins.set(table, "tiny", 1, c.job, "0000000000000000")
			res, err := tinyBench(t, c.workload, pins).runEndToEnd(0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 || float64(res.Failed)/float64(res.Attempted) <= 0 {
				t.Fatalf("planted digest not caught: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

// TestTracedRun checks that the traced run reports every per-layer
// metric BENCHMARK.json lists, passes its own self checks, and
// attributes more CPU to the segmented queue on seg_chains than on
// ideal_lsq.
func TestTracedRun(t *testing.T) {
	bf := readBenchmarkFile(t)
	core := map[string]float64{}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := tinyBench(t, name, nil).runTraced(1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run incorrect: %v", res.notes)
			}
			for _, m := range bf.PerLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer metric %s not reported", m.Name)
				}
			}
			if len(res.Metrics) != len(bf.PerLayer) {
				t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(bf.PerLayer))
			}
			core[name] = res.Metrics["core.cpu_share"].Value
			if name == "sweep_coord" && res.Metrics["coord.leases"].Value < 26 {
				t.Errorf("coord.leases = %g, want at least one per grid point", res.Metrics["coord.leases"].Value)
			}
		})
	}
	if core["seg_chains"] <= core["ideal_lsq"] {
		t.Errorf("core.cpu_share: seg_chains %g, ideal_lsq %g; want seg_chains higher", core["seg_chains"], core["ideal_lsq"])
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/core.(*SegmentedIQ).promote", "repro/internal/sim.(*Engine).Step"}, "core"},
		{[]string{"repro/internal/stats.(*Mean).Observe", "repro/internal/pipeline.(*LSQ).Tick"}, "pipeline"},
		{[]string{"runtime.gcWriteBarrier2", "repro/internal/mem.(*EventQueue).Schedule"}, "runtime"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "repro/internal/sim.(*Engine).Step"}, "runtime"},
		{[]string{"sort.Slice", "repro/internal/experiments.Options.runAll.func1"}, "experiments"},
		{[]string{"syscall.Syscall", "net/http.(*persistConn).writeLoop"}, "coord"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "runtime"},
		{[]string{"repro/internal/model.Score"}, "other"},
		{[]string{"main.median"}, "other"},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestInputSeed(t *testing.T) {
	for s, want := range map[uint64]uint64{0: pinnedSeeds, 1: 1, pinnedSeeds: pinnedSeeds, pinnedSeeds + 1: 1, 1 << 63: 16} {
		if got := inputSeed(s); got != want {
			t.Errorf("inputSeed(%d) = %d, want %d", s, got, want)
		}
	}
}

// TestCoordMatchesSingleProcess checks sweep_coord's merged file
// against a live single-process RunShard(0,1) run of the same grid and
// seed: the live file must have the pinned digest the sweep's merged
// file passes. A wrong pinned file digest must fail every job of the
// sweep.
func TestCoordMatchesSingleProcess(t *testing.T) {
	b := tinyBench(t, "sweep_coord", nil)
	sf, err := experiments.RunShard(b.sweepOptions(1), "fig2", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	live, err := sf.MarshalPretty()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fileDigest(live), b.pins.lookup(filePins, "tiny", 1, fileJob); got != want {
		t.Fatalf("single-process file digest %s, pinned %s", got, want)
	}
	it, err := b.coordSweepIteration(1)
	if err != nil {
		t.Fatal(err)
	}
	if it.failed != 0 {
		t.Fatalf("%d of %d jobs failed: the merged file differs from the single-process file", it.failed, it.attempted)
	}

	b.pins.set(filePins, "tiny", 1, fileJob, "wrong")
	if it, err = b.coordSweepIteration(1); err != nil {
		t.Fatal(err)
	}
	if it.failed != it.attempted || it.attempted != 26 {
		t.Fatalf("wrong file pin: %d of %d jobs failed, want all 26", it.failed, it.attempted)
	}
}
