package model

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// referenceGrid is the validation grid: the shapes the Fig2/Fig3 sweeps
// actually explore — every queue design across sizes, chain budgets for
// the segmented design, and ROB variations — small enough to simulate
// fully in a test run.
func referenceGrid() []sim.Config {
	var grid []sim.Config
	for _, size := range []int{16, 32, 64, 128, 256, 512} {
		grid = append(grid, sim.DefaultConfig(sim.QueueIdeal, size))
	}
	// Starved machines: the mega-grid's low ROB/LSQ factors.
	tiny := sim.DefaultConfig(sim.QueueIdeal, 32)
	tiny.ROBSize, tiny.LSQSize = 32, 16
	grid = append(grid, tiny)
	tiny2 := sim.DefaultConfig(sim.QueueIdeal, 64)
	tiny2.ROBSize, tiny2.LSQSize = 64, 32
	grid = append(grid, tiny2)
	grid = append(grid, sim.SegmentedConfig(32, 8, true, true))
	grid = append(grid,
		sim.SegmentedConfig(512, 0, true, true),
		sim.SegmentedConfig(512, 128, true, true),
		sim.SegmentedConfig(512, 64, true, true),
		sim.SegmentedConfig(256, 64, true, true),
		sim.SegmentedConfig(128, 32, true, true),
		sim.SegmentedConfig(64, 16, true, true),
		sim.PrescheduledConfig(128),
		sim.PrescheduledConfig(320),
		sim.PrescheduledConfig(704),
		sim.FIFOConfig(64),
		sim.FIFOConfig(256),
		sim.DistanceConfig(128),
		sim.DistanceConfig(320),
	)
	robVar := sim.DefaultConfig(sim.QueueIdeal, 128)
	robVar.ROBSize = 128
	grid = append(grid, robVar)
	robVar2 := sim.DefaultConfig(sim.QueueIdeal, 128)
	robVar2.ROBSize = 256
	robVar2.LSQSize = 64
	grid = append(grid, robVar2)
	return grid
}

func gridKey(c sim.Config) string {
	ch := ""
	if c.Queue == sim.QueueSegmented {
		ch = fmt.Sprintf("/ch%d", c.Segmented.MaxChains)
	}
	return fmt.Sprintf("%s/%d%s/rob%d/lsq%d", c.Queue, c.QueueSize, ch, c.ROBSize, c.LSQSize)
}

const (
	validateN    = 3000
	validateWarm = 20000
)

// simulateGrid runs every grid point from one shared warm checkpoint and
// returns simulated IPCs in grid order.
func simulateGrid(t *testing.T, wl string, grid []sim.Config) []float64 {
	t.Helper()
	ck, err := sim.NewCheckpoint(sim.DefaultConfig(sim.QueueIdeal, 512),
		sim.ContextSpec{Workload: wl, Seed: 1, Warm: validateWarm})
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Release()
	out := make([]float64, len(grid))
	for i, cfg := range grid {
		p, err := ck.Fork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run(validateN)
		if err != nil {
			t.Fatal(err)
		}
		p.Recycle()
		out[i] = r.IPC
	}
	return out
}

func profileFor(t *testing.T, wl string) trace.Profile {
	t.Helper()
	s, err := trace.New(wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Characterize(s, 50000)
}

// flatSpread is the relative simulated-IPC spread below which a grid is
// considered unrankable: when every configuration performs within 15% of
// every other, rank order is dominated by noise, mis-ranking costs at
// most that spread, and the per-workload Spearman gate is waived
// (DESIGN.md §12). The pooled cross-workload gate below always applies.
const flatSpread = 0.15

// TestEstimatorRanking is the calibration gate: on the fully simulated
// reference grid, the analytic estimates must rank configurations with
// Spearman >= 0.8 — per workload wherever the grid is rankable, and
// pooled across all workloads unconditionally. This is the same
// threshold the pre-screened sweeps' audit sample is held to
// (DESIGN.md §12).
func TestEstimatorRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the reference grid")
	}
	grid := referenceGrid()
	wls := []string{"gcc", "swim", "twolf", "ammp"}
	var mu sync.Mutex
	var allEst, allSim []float64
	t.Run("grid", func(t *testing.T) {
		for _, wl := range wls {
			wl := wl
			t.Run(wl, func(t *testing.T) {
				t.Parallel()
				prof := profileFor(t, wl)
				l1, l2 := MissRates(prof, grid[0])
				t.Logf("%s: foot %dKB missL1 %.2f missL2 %.2f mp %.3f brFrac %.2f loadFrac %.2f fpFrac %.2f crit %.0f/%.0f",
					wl, prof.UniqueLines*64/1024, l1, l2, Mispredict(prof, grid[0]),
					prof.BranchFraction(), prof.MixFrac[7], prof.FpFraction(),
					prof.CritPathSub, prof.CritPathWin)
				simIPC := simulateGrid(t, wl, grid)
				est := make([]float64, len(grid))
				lo, hi := math.Inf(1), 0.0
				for i, cfg := range grid {
					e := For(prof, cfg)
					est[i] = e.IPC
					lo, hi = math.Min(lo, simIPC[i]), math.Max(hi, simIPC[i])
					t.Logf("%-34s est %6.3f sim %6.3f  W=%5.0f bound=%s",
						gridKey(cfg), e.IPC, simIPC[i], e.Window, e.Bound)
				}
				mu.Lock()
				allEst = append(allEst, est...)
				allSim = append(allSim, simIPC...)
				mu.Unlock()
				rho := Spearman(est, simIPC)
				mape := MAPE(est, simIPC)
				spread := (hi - lo) / hi
				t.Logf("%s: spearman %.3f mape %.0f%% spread %.0f%%", wl, rho, 100*mape, 100*spread)
				if spread < flatSpread {
					t.Logf("%s: simulated grid is flat (spread %.0f%% < %.0f%%); per-workload rank gate waived",
						wl, 100*spread, 100*flatSpread)
					return
				}
				if rho < 0.8 {
					t.Errorf("%s: Spearman %.3f below the 0.8 screening contract", wl, rho)
				}
			})
		}
	})
	if len(allSim) != len(wls)*len(grid) {
		t.Fatalf("collected %d points, want %d", len(allSim), len(wls)*len(grid))
	}
	rho := Spearman(allEst, allSim)
	t.Logf("pooled: spearman %.3f mape %.0f%% over %d points", rho, 100*MAPE(allEst, allSim), len(allSim))
	if rho < 0.8 {
		t.Errorf("pooled Spearman %.3f below the 0.8 screening contract", rho)
	}
}

// TestFrontierContainsTrueBest pins the acceptance contract on the
// reference grid: the configuration with the best simulated IPC per
// entry must be inside the predicted frontier (with the default
// screening slack), for every workload — otherwise a pre-screened sweep
// could discard the very point a full sweep would have crowned.
func TestFrontierContainsTrueBest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the reference grid")
	}
	grid := referenceGrid()
	const slack = 0.05
	for _, wl := range []string{"gcc", "swim", "twolf", "ammp"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			t.Parallel()
			prof := profileFor(t, wl)
			simIPC := simulateGrid(t, wl, grid)
			points := make([]Point, len(grid))
			bestIdx, bestVal := 0, 0.0
			for i, cfg := range grid {
				points[i] = Point{Key: gridKey(cfg), Entries: Entries(cfg), IPC: For(prof, cfg).IPC}
				if v := simIPC[i] / float64(Entries(cfg)); v > bestVal {
					bestIdx, bestVal = i, v
				}
			}
			front := Frontier(points, slack)
			i := sort.SearchInts(front, bestIdx)
			if i >= len(front) || front[i] != bestIdx {
				t.Errorf("%s: true best-IPC-per-entry point %s (sim %.2f IPC / %d entries) not in predicted frontier (%d of %d points)",
					wl, gridKey(grid[bestIdx]), simIPC[bestIdx], Entries(grid[bestIdx]), len(front), len(grid))
				for _, i := range front {
					t.Logf("frontier: %s", points[i].Key)
				}
			}
		})
	}
}
