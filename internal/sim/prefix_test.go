package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// prefixFamilies returns one sweep family per queue design. The ideal
// and segmented families vary the design's own sweep bound (capacity,
// chain wires); the other three vary ROB/LSQ, the only dimension their
// geometry-baked placement allows a family to share across.
func prefixFamilies() map[string][]Config {
	shrink := func(c Config, rob, lsq int) Config {
		c.ROBSize, c.LSQSize = rob, lsq
		return c
	}
	fams := map[string][]Config{
		"ideal": {
			DefaultConfig(QueueIdeal, 64),
			DefaultConfig(QueueIdeal, 256),
			DefaultConfig(QueueIdeal, 128),
		},
		"segmented": {
			SegmentedConfig(256, 64, true, true),
			SegmentedConfig(256, 0, true, true),
			SegmentedConfig(256, 128, true, true),
		},
	}
	for name, cfg := range map[string]Config{
		"presched": PrescheduledConfig(320),
		"fifos":    FIFOConfig(128),
		"distance": DistanceConfig(320),
	} {
		fams[name] = []Config{
			shrink(cfg, cfg.ROBSize/2, cfg.LSQSize/2),
			cfg,
			shrink(cfg, cfg.ROBSize/2, cfg.LSQSize),
		}
	}
	return fams
}

// TestRunFamilyMatchesCold: for every design's sweep family, results
// with prefix sharing on must be bit-identical to cold checkpoint forks
// of each member (share=false), and the refittable families must
// actually share — otherwise the test exercises only the fallback path.
func TestRunFamilyMatchesCold(t *testing.T) {
	const workload, seed, n, warm = "swim", 1, 20_000, 50_000
	for name, cfgs := range prefixFamilies() {
		name, cfgs := name, cfgs
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ck, err := NewCheckpoint(cfgs[0], ContextSpec{Workload: workload, Seed: seed, Warm: warm})
			if err != nil {
				t.Fatal(err)
			}
			var ps PrefixStats
			shared, err := RunFamily(ck, cfgs, n, true, &ps)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := RunFamily(ck, cfgs, n, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(shared[i], cold[i]) {
					t.Errorf("member %d diverged from cold run\nshared: %+v\ncold:   %+v",
						i, shared[i].Stats, cold[i].Stats)
				}
			}
			if ps.Families.Load() != 1 {
				t.Errorf("expected one ladder-carrying family, got %d", ps.Families.Load())
			}
			if got := ps.Shared.Load() + ps.Fallbacks.Load(); got != int64(len(cfgs)-1) {
				t.Errorf("sibling outcomes %d != %d members", got, len(cfgs)-1)
			}
			// The ideal/segmented families here tighten the queue bound
			// well below swim's demand, which crosses it within the first
			// couple thousand cycles — an early-divergence fallback is
			// the correct outcome for them. Only the ROB/LSQ families
			// are guaranteed late divergence; TestRunFamilyFullShare and
			// TestCloneBoundedMidRun cover the queue-dim share and refit
			// paths with measured bounds.
			if sharing := map[string]bool{"presched": true, "fifos": true, "distance": true}; sharing[name] && ps.Shared.Load() == 0 {
				t.Errorf("[%s] no sibling forked from a rung (fallbacks=%d); sharing untested",
					name, ps.Fallbacks.Load())
			}
			t.Logf("[%s] prefix: %s", name, ps.String())
		})
	}
}

// TestRunFamilyMatchesColdSMT repeats the conformance check on
// multi-context machines: 2- and 4-context sets for each design, with
// pending SMT state (shared caches, partitioned ROB/LSQ) carried across
// the fork.
func TestRunFamilyMatchesColdSMT(t *testing.T) {
	if testing.Short() {
		t.Skip("SMT conformance matrix is slow")
	}
	const n, warm = 20_000, 30_000
	workloads := []string{"swim", "twolf", "mgrid", "gcc"}
	for name, cfgs := range prefixFamilies() {
		for _, nctx := range []int{2, 4} {
			name, cfgs, nctx := name, cfgs, nctx
			t.Run(fmt.Sprintf("%s/%dctx", name, nctx), func(t *testing.T) {
				t.Parallel()
				var specs []ContextSpec
				for i := 0; i < nctx; i++ {
					specs = append(specs, ContextSpec{Workload: workloads[i], Seed: uint64(i + 1), Warm: warm})
				}
				ck, err := NewCheckpoint(cfgs[0], specs...)
				if err != nil {
					t.Fatal(err)
				}
				var ps PrefixStats
				shared, err := RunFamily(ck, cfgs, n, true, &ps)
				if err != nil {
					t.Fatal(err)
				}
				cold, err := RunFamily(ck, cfgs, n, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range cfgs {
					if !reflect.DeepEqual(shared[i], cold[i]) {
						t.Errorf("member %d diverged from cold run\nshared: %+v\ncold:   %+v",
							i, shared[i].Stats, cold[i].Stats)
					}
				}
				t.Logf("[%s/%dctx] prefix: %s", name, nctx, ps.String())
			})
		}
	}
}

// TestRunFamilyFullShare drives the full-run share path: the reference
// is run once to measure its demand peak, and a sibling is bounded just
// above that peak, so the reference's demand provably never reaches the
// sibling's bound. RunFamily must then duplicate the reference's result
// outright — SharedCycles equals the whole run — and the copy must match
// a cold run of the sibling exactly.
func TestRunFamilyFullShare(t *testing.T) {
	const n, warm = 20_000, 50_000
	cases := []struct {
		name    string
		ref     Config
		dim     string
		makeSib func(Config, int) Config
	}{
		{"ideal", DefaultConfig(QueueIdeal, 512), "iq",
			func(c Config, b int) Config { c.QueueSize = b; return c }},
		{"segmented", SegmentedConfig(256, 0, true, true), "chains",
			func(c Config, b int) Config { c.Segmented.MaxChains = b; return c }},
		// The paper's 512-entry geometry, whose unlimited-chain
		// reference Figure 2's chain budgets are siblings of.
		{"segmented512", SegmentedConfig(512, 0, true, true), "chains",
			func(c Config, b int) Config { c.Segmented.MaxChains = b; return c }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ck, err := NewCheckpoint(tc.ref, ContextSpec{Workload: "swim", Seed: 1, Warm: warm})
			if err != nil {
				t.Fatal(err)
			}
			probe, err := ck.Fork(tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := probe.Run(n); err != nil {
				t.Fatal(err)
			}
			peak := int64(-1)
			for _, d := range probe.Engine.Demands() {
				if d.Dim == tc.dim {
					peak = d.Peak()
				}
			}
			if peak < 0 {
				t.Fatalf("reference reported no %q demand curve", tc.dim)
			}
			bound := int(peak) + 16
			if b1, _, _ := queueBound(tc.ref); b1 != 0 && bound >= b1 {
				t.Skipf("demand saturates the reference bound (%d/%d); nothing to refit", peak, b1)
			}
			cfgs := []Config{tc.ref, tc.makeSib(tc.ref, bound)}
			var ps PrefixStats
			shared, err := RunFamily(ck, cfgs, n, true, &ps)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := RunFamily(ck, cfgs, n, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(shared[i], cold[i]) {
					t.Errorf("member %d diverged from cold run\nshared: %+v\ncold:   %+v",
						i, shared[i].Stats, cold[i].Stats)
				}
			}
			if ps.Shared.Load() != 1 || ps.SharedCycles.Load() != shared[0].Cycles {
				t.Errorf("never-diverging sibling did not share the whole run (ref cycles %d): %s",
					shared[0].Cycles, ps.String())
			}
			t.Logf("[%s] bound=%d (peak %d): %s", tc.name, bound, peak, ps.String())
		})
	}
}

// TestCloneBoundedMidRun is the direct refit conformance check: a
// reference machine is snapshotted mid-run — with instructions in
// flight, caches warm, predictors trained — and refitted to a tighter
// queue bound chosen just above the run's measured demand peak
// (capacity for the conventional design, the chain pool's free list for
// the segmented one). The refitted machine's run must match a cold fork
// of the tighter configuration bit for bit.
func TestCloneBoundedMidRun(t *testing.T) {
	const n, warm = 20_000, 50_000
	cases := []struct {
		name    string
		ref     Config
		dim     string
		makeSib func(Config, int) Config
	}{
		{"ideal", DefaultConfig(QueueIdeal, 512), "iq",
			func(c Config, b int) Config { c.QueueSize = b; return c }},
		{"segmented", SegmentedConfig(256, 0, true, true), "chains",
			func(c Config, b int) Config { c.Segmented.MaxChains = b; return c }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ck, err := NewCheckpoint(tc.ref, ContextSpec{Workload: "swim", Seed: 1, Warm: warm})
			if err != nil {
				t.Fatal(err)
			}
			probe, err := ck.Fork(tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := probe.Run(n); err != nil {
				t.Fatal(err)
			}
			peak := int64(-1)
			for _, d := range probe.Engine.Demands() {
				if d.Dim == tc.dim {
					peak = d.Peak()
				}
			}
			if peak < 0 {
				t.Fatalf("reference reported no %q demand curve", tc.dim)
			}
			bound := int(peak) + 16
			if b1, _, _ := queueBound(tc.ref); b1 != 0 && bound >= b1 {
				t.Skipf("demand saturates the reference bound (%d/%d); nothing to refit", peak, b1)
			}
			sibCfg := tc.makeSib(tc.ref, bound)

			p, err := ck.Fork(tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			var sib *Engine
			var cloneErr error
			hook := func(e *Engine) {
				if sib == nil && cloneErr == nil && e.cycle >= 4096 && e.inExec == 0 {
					sib, cloneErr = e.CloneBounded(sibCfg)
				}
			}
			if err := p.Engine.runHooked(n, hook); err != nil {
				t.Fatal(err)
			}
			if cloneErr != nil {
				t.Fatalf("mid-run CloneBounded: %v", cloneErr)
			}
			if sib == nil {
				t.Fatal("run never reached a cloneable boundary past cycle 4096")
			}
			forkCycle := sib.cycle
			got, err := (&Processor{Engine: sib}).Run(n)
			if err != nil {
				t.Fatal(err)
			}
			coldP, err := ck.Fork(sibCfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := coldP.Run(n)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, cold) {
				t.Errorf("refitted run diverged from cold run\nrefit: %+v\ncold:  %+v",
					got.Stats, cold.Stats)
			}
			t.Logf("[%s] bound=%d (peak %d), forked at cycle %d of %d",
				tc.name, bound, peak, forkCycle, cold.Cycles)
		})
	}
}

// TestRunFamilyMidRunDivergence exercises the ladder rung path proper: a
// sibling whose ROB the reference's demand reaches only late in the run,
// so the fork must come from a rung strictly between the checkpoint and
// the divergence cycle — sharing part of the run, simulating the rest.
func TestRunFamilyMidRunDivergence(t *testing.T) {
	const n, warm = 20_000, 50_000
	// twolf's ROB demand keeps climbing deep into the run, giving
	// divergence cycles safely past the first ladder rung (quiescent
	// boundaries can be thousands of cycles apart).
	ref := SegmentedConfig(256, 0, true, true)
	ck, err := NewCheckpoint(ref, ContextSpec{Workload: "twolf", Seed: 1, Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := ck.Fork(ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Run(n); err != nil {
		t.Fatal(err)
	}
	// Pick a ROB bound whose first crossing lands past the first rung
	// marks but well before the end of the run: the sibling then diverges
	// mid-run, forcing a rung fork rather than a whole-run copy.
	sibRob := 0
	var divAt int64
	for _, d := range probe.Engine.Demands() {
		if d.Dim != "rob" {
			continue
		}
		for _, s := range d.Steps {
			if s.Cycle > 8000 && int(s.High) < ref.ROBSize {
				sibRob, divAt = int(s.High), s.Cycle
				break
			}
		}
	}
	if sibRob == 0 {
		t.Skip("no mid-run ROB demand step on this workload; rung path not reachable here")
	}
	sibCfg := ref
	sibCfg.ROBSize = sibRob
	cfgs := []Config{ref, sibCfg}
	var ps PrefixStats
	shared, err := RunFamily(ck, cfgs, n, true, &ps)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunFamily(ck, cfgs, n, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(shared[i], cold[i]) {
			t.Errorf("member %d diverged from cold run\nshared: %+v\ncold:   %+v",
				i, shared[i].Stats, cold[i].Stats)
		}
	}
	sc := ps.SharedCycles.Load()
	if ps.Shared.Load() != 1 || sc == 0 || sc > divAt || sc >= shared[0].Cycles {
		t.Errorf("expected a partial rung fork before cycle %d (ref run %d cycles): %s",
			divAt, shared[0].Cycles, ps.String())
	}
	t.Logf("sibling ROB=%d diverges at cycle %d: %s", sibRob, divAt, ps.String())
}

// TestRunFamilyEarlyDivergenceFallsBack: a sibling whose bound the
// reference's demand crosses before the first affordable rung must
// silently take the cold-fork path — and still match a cold run.
func TestRunFamilyEarlyDivergenceFallsBack(t *testing.T) {
	const n, warm = 12_000, 30_000
	cfgs := []Config{
		DefaultConfig(QueueIdeal, 256),
		// An 8-entry queue binds within the first few cycles of
		// measurement, far below the ladder's economics floor.
		DefaultConfig(QueueIdeal, 8),
	}
	ck, err := NewCheckpoint(cfgs[0], ContextSpec{Workload: "swim", Seed: 1, Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	var ps PrefixStats
	shared, err := RunFamily(ck, cfgs, n, true, &ps)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunFamily(ck, cfgs, n, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(shared[i], cold[i]) {
			t.Errorf("member %d diverged from cold run", i)
		}
	}
	if ps.Fallbacks.Load() != 1 || ps.Shared.Load() != 0 {
		t.Errorf("expected the tight sibling to fall back (fallbacks=%d shared=%d)",
			ps.Fallbacks.Load(), ps.Shared.Load())
	}
}

// TestPickReference: the dominating member is found regardless of
// position; mixed families without one are rejected.
func TestPickReference(t *testing.T) {
	fam := []Config{
		DefaultConfig(QueueIdeal, 64),
		DefaultConfig(QueueIdeal, 512),
		DefaultConfig(QueueIdeal, 128),
	}
	if got := pickReference(fam); got != 1 {
		t.Errorf("pickReference = %d, want 1", got)
	}
	mixed := []Config{DefaultConfig(QueueIdeal, 64), SegmentedConfig(256, 0, true, true)}
	if got := pickReference(mixed); got != -1 {
		t.Errorf("pickReference accepted a cross-design family (%d)", got)
	}
	// Two members each loosest on a different dimension: no reference.
	a := DefaultConfig(QueueIdeal, 256)
	b := DefaultConfig(QueueIdeal, 128)
	b.ROBSize = a.ROBSize * 2
	if got := pickReference([]Config{a, b}); got != -1 {
		t.Errorf("pickReference found a reference in an undominated family (%d)", got)
	}
}
