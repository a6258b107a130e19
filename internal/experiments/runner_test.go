package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
)

func runnerTestOptions() Options {
	return Options{Instructions: 1500, Warmup: 8000, Seed: 1, Benchmarks: []string{"gcc", "twolf"}}
}

// gridKeys returns fig2's keys for one workload, in key order.
func gridKeys(t *testing.T, o Options, wl string) []string {
	t.Helper()
	_, specs, err := GridPlan(o, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, s := range specs {
		if s.Workload == wl {
			keys = append(keys, s.Key)
		}
	}
	return keys
}

// checkSettled asserts the state a runner must be in between batches:
// no claims left, at most one (idle) checkpoint held. It returns the held
// checkpoint, or nil.
func checkSettled(t *testing.T, r *JobRunner) *sim.Checkpoint {
	t.Helper()
	c := r.cks
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) > 1 {
		t.Fatalf("runner holds %d checkpoints between batches, want at most 1", len(c.m))
	}
	for _, e := range c.m {
		if e.refs != 0 {
			t.Fatalf("entry %s keeps %d claims after its batch", e.key.wl, e.refs)
		}
		if e != c.idle {
			t.Fatalf("entry %s is held but is not the idle entry", e.key.wl)
		}
		return e.ck
	}
	return nil
}

func requireReleased(t *testing.T, ck *sim.Checkpoint, what string) {
	t.Helper()
	_, err := ck.Fork(sim.DefaultConfig(sim.QueueIdeal, 64))
	if err == nil || !strings.Contains(err.Error(), "released") {
		t.Fatalf("%s: fork error = %v, want the checkpoint released", what, err)
	}
}

// TestJobRunnerWarmsOncePerContextSet: single-key batches grouped by
// workload — the order the coordinator's queue leases them in — build
// exactly one checkpoint per context set. Switching context sets
// releases the idle checkpoint; Close releases the last one.
func TestJobRunnerWarmsOncePerContextSet(t *testing.T) {
	o := runnerTestOptions()
	r, err := NewJobRunner(o, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	var gccCk *sim.Checkpoint
	for i, wl := range o.Benchmarks {
		for _, k := range gridKeys(t, o, wl) {
			if _, err := r.Run([]string{k}); err != nil {
				t.Fatal(err)
			}
			held := checkSettled(t, r)
			if held == nil {
				t.Fatalf("after %s no checkpoint is kept for the next lease", k)
			}
			if i == 0 {
				if gccCk != nil && held != gccCk {
					t.Fatalf("after %s the runner holds a different gcc checkpoint", k)
				}
				gccCk = held
			}
		}
		if got, want := r.Warmups(), i+1; got != want {
			t.Fatalf("after the %s keys: %d warmups, want %d", wl, got, want)
		}
	}
	requireReleased(t, gccCk, "gcc after the switch to twolf")
	last := checkSettled(t, r)
	r.Close()
	requireReleased(t, last, "idle checkpoint after Close")
}

// TestJobRunnerAlternatingKeysRewarm pins the retention rule's other
// side: one idle checkpoint is all a runner keeps, so alternating context
// sets warm on every switch (which is why the coordinator's queue groups
// jobs by workload).
func TestJobRunnerAlternatingKeysRewarm(t *testing.T) {
	o := runnerTestOptions()
	gcc, twolf := gridKeys(t, o, "gcc"), gridKeys(t, o, "twolf")
	r, err := NewJobRunner(o, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	keys := []string{gcc[0], twolf[0], gcc[1], twolf[1]}
	for _, k := range keys {
		if _, err := r.Run([]string{k}); err != nil {
			t.Fatal(err)
		}
		checkSettled(t, r)
	}
	if got := r.Warmups(); got != len(keys) {
		t.Fatalf("%d warmups for %d alternating keys", got, len(keys))
	}
}

// TestJobRunnerMatchesSingleProcess: fragments from one runner over
// interleaved gcc/twolf keys, four per batch with two families in flight,
// carry byte-for-byte the results of the single-process RunShard(0,1)
// run. A checkpoint released while a family still forked it would fail
// the batch (Fork refuses a released checkpoint).
func TestJobRunnerMatchesSingleProcess(t *testing.T) {
	o := runnerTestOptions()
	o.Parallel = 2
	full, err := RunShard(o, "fig2", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	gcc, twolf := gridKeys(t, o, "gcc"), gridKeys(t, o, "twolf")
	var keys []string
	for i := range gcc {
		keys = append(keys, gcc[i], twolf[i])
	}
	r, err := NewJobRunner(o, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen := 0
	for len(keys) > 0 {
		n := min(4, len(keys))
		batch := keys[:n]
		keys = keys[n:]
		frag, err := r.Run(batch)
		if err != nil {
			t.Fatal(err)
		}
		checkSettled(t, r)
		if frag.Header() != full.Header() {
			t.Fatalf("fragment header %s, want %s", frag.Header(), full.Header())
		}
		if len(frag.Results) != len(batch) {
			t.Fatalf("fragment has %d results for %d keys", len(frag.Results), len(batch))
		}
		for _, k := range batch {
			got, _ := json.Marshal(frag.Results[k])
			want, _ := json.Marshal(full.Results[k])
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs from the single-process run:\n got %s\nwant %s", k, got, want)
			}
			seen++
		}
	}
	if seen != full.TotalJobs {
		t.Fatalf("checked %d keys, grid has %d", seen, full.TotalJobs)
	}
}

// TestJobRunnerRejectsBadKeys: unknown and repeated keys fail before any
// simulation.
func TestJobRunnerRejectsBadKeys(t *testing.T) {
	o := runnerTestOptions()
	r, err := NewJobRunner(o, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	k := gridKeys(t, o, "gcc")[0]
	if _, err := r.Run([]string{"nope/gcc"}); err == nil || !strings.Contains(err.Error(), "not in fig2's grid") {
		t.Fatalf("unknown key: %v", err)
	}
	if _, err := r.Run([]string{k, k}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("repeated key: %v", err)
	}
	if r.Warmups() != 0 {
		t.Fatalf("rejected batches warmed %d checkpoints", r.Warmups())
	}
}

// TestJobRunnerReleasesIdleBeforeWarming: the idle checkpoint is released
// before a different context set warms, not after, so a warmup never
// overlaps a checkpoint nothing claims.
func TestJobRunnerReleasesIdleBeforeWarming(t *testing.T) {
	o := runnerTestOptions()
	r, err := NewJobRunner(o, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Run(gridKeys(t, o, "gcc")[:1]); err != nil {
		t.Fatal(err)
	}
	gccCk := checkSettled(t, r)
	twolf := []job{r.byKey[gridKeys(t, o, "twolf")[0]]}
	c := r.cks
	c.retain(twolf)
	if _, err := c.get(twolf[0]); err != nil {
		t.Fatal(err)
	}
	requireReleased(t, gccCk, "idle gcc checkpoint once twolf has warmed")
	c.forked(twolf[0])
	checkSettled(t, r)
}

// TestCkCacheSettleDropsLeftClaims: claims a failed batch never dropped
// (families its stop flag skipped) are dropped by settle, under the same
// retention rule as a last fork.
func TestCkCacheSettleDropsLeftClaims(t *testing.T) {
	o := runnerTestOptions()
	r, err := NewJobRunner(o, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	jobs := []job{r.byKey[gridKeys(t, o, "gcc")[0]], r.byKey[gridKeys(t, o, "twolf")[0]]}
	c := r.cks
	c.retain(jobs)
	if _, err := c.get(jobs[0]); err != nil {
		t.Fatal(err)
	}
	c.forked(jobs[0])
	// jobs[1] never ran: its claim is still held.
	c.settle()
	if held := checkSettled(t, r); held == nil {
		t.Fatal("settle released the warmed checkpoint instead of keeping it idle")
	}
}
