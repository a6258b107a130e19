package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func shardTestOptions() Options {
	return Options{Instructions: 2000, Warmup: 10_000, Seed: 1, Benchmarks: []string{"swim", "gcc"}}
}

// TestShardedSweepMatchesSingleProcess is the sharding contract: running
// a grid as two shards and merging must reproduce the single-process
// result set bit for bit — including the serialized JSON, so shards can
// be compared with cmp(1) in CI.
func TestShardedSweepMatchesSingleProcess(t *testing.T) {
	o := shardTestOptions()
	full, err := RunShard(o, "table2", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := RunShard(o, "table2", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := RunShard(o, "table2", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s0.Results)+len(s1.Results) != len(full.Results) {
		t.Fatalf("shards hold %d+%d results, full run %d", len(s0.Results), len(s1.Results), len(full.Results))
	}
	// Merge order must not matter.
	merged, err := MergeShards([]*ShardFile{s1, s0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, full) {
		t.Fatal("merged shard set differs from single-process run")
	}
	mj, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mj, fj) {
		t.Fatal("merged JSON is not byte-identical to the single-process JSON")
	}

	// The assembled table must also match one computed the ordinary way.
	direct, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	fromShards, err := Table2From(merged.Options(), merged.SimResults())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromShards, direct) {
		t.Fatal("Table2 assembled from shards differs from direct Table2")
	}
}

// TestShardPartitionCoversEveryExperiment: for every named grid, the
// shard partition is a disjoint cover, independent of shard count.
func TestShardPartitionCoversEveryExperiment(t *testing.T) {
	o := Options{Instructions: 1, Warmup: 1, Seed: 1, Benchmarks: []string{"swim"}}
	for _, exp := range Experiments {
		jobs, err := experimentJobs(exp, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 3, 7} {
			seen := make(map[string]int)
			for shard := 0; shard < n; shard++ {
				for i := shard; i < len(jobs); i += n {
					seen[jobs[i].key]++
				}
			}
			if len(seen) != len(jobs) {
				t.Fatalf("%s/%d shards: %d keys covered, grid has %d", exp, n, len(seen), len(jobs))
			}
			for key, c := range seen {
				if c != 1 {
					t.Fatalf("%s/%d shards: key %s assigned %d times", exp, n, key, c)
				}
			}
		}
	}
	if _, err := experimentJobs("nope", o); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestMergeShardsRejectsBadSets: incomplete, duplicated or mismatched
// shard sets must fail loudly rather than merge into a wrong result.
// Table-driven over every header and partition invariant MergeShards
// enforces; each case corrupts a fresh copy of a valid two-shard set.
func TestMergeShardsRejectsBadSets(t *testing.T) {
	o := shardTestOptions()
	s0, err := RunShard(o, "table2", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := RunShard(o, "table2", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	oo := o
	oo.Instructions++
	x1, err := RunShard(oo, "table2", 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	// clone deep-copies a shard file so a case can corrupt it freely.
	clone := func(sf *ShardFile) *ShardFile {
		c := *sf
		c.Results = make(map[string]*RecordedResult, len(sf.Results))
		for k, r := range sf.Results {
			rr := *r
			c.Results[k] = &rr
		}
		return &c
	}
	anyKey := func(sf *ShardFile) string {
		for k := range sf.Results {
			return k
		}
		t.Fatal("shard holds no results")
		return ""
	}

	cases := []struct {
		name  string
		files func() []*ShardFile
		want  string // substring the error must contain
	}{
		{"empty set", func() []*ShardFile { return nil }, "zero shard files"},
		{"incomplete set", func() []*ShardFile { return []*ShardFile{s0} }, "1 shard files"},
		{"duplicate shard index", func() []*ShardFile { return []*ShardFile{s0, s0} }, "supplied twice"},
		{"mixed scale", func() []*ShardFile { return []*ShardFile{s0, x1} }, "header mismatch"},
		{"wrong schema", func() []*ShardFile {
			b := clone(s0)
			b.Schema = ShardSchema + 1
			return []*ShardFile{b, s1}
		}, "schema"},
		{"mismatched experiment", func() []*ShardFile {
			b := clone(s1)
			b.Experiment = "fig2"
			return []*ShardFile{s0, b}
		}, "header mismatch"},
		{"mismatched contexts", func() []*ShardFile {
			b := clone(s1)
			b.Contexts = 4 // an SMT shard can never merge with a single-threaded one
			return []*ShardFile{s0, b}
		}, "header mismatch"},
		{"mismatched seed", func() []*ShardFile {
			b := clone(s1)
			b.Seed++
			return []*ShardFile{s0, b}
		}, "header mismatch"},
		{"mismatched benchmarks", func() []*ShardFile {
			b := clone(s1)
			b.Benchmarks = []string{"swim"}
			return []*ShardFile{s0, b}
		}, "header mismatch"},
		{"shard index beyond NumShards", func() []*ShardFile {
			b := clone(s1)
			b.Shard = 5 // claims shard 5 of a 2-shard sweep
			return []*ShardFile{s0, b}
		}, "out of range"},
		{"negative shard index", func() []*ShardFile {
			b := clone(s1)
			b.Shard = -1
			return []*ShardFile{s0, b}
		}, "out of range"},
		{"overlapping grid point", func() []*ShardFile {
			b := clone(s1)
			k := anyKey(s0)
			b.Results[k] = s0.Results[k] // the same point in both shards
			return []*ShardFile{s0, b}
		}, "more than one shard"},
		{"null result", func() []*ShardFile {
			b := clone(s1)
			b.Results[anyKey(b)] = nil // decodes from {"key": null}
			return []*ShardFile{s0, b}
		}, "is null"},
		{"missing grid point", func() []*ShardFile {
			b := clone(s1)
			delete(b.Results, anyKey(b))
			return []*ShardFile{s0, b}
		}, "grid has"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := MergeShards(c.files())
			if err == nil {
				t.Fatalf("%s accepted", c.name)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestCheckpointDirSkipsWarmup: with a checkpoint directory, the first
// batch pays every warmup and saves it; a second batch over the same
// options loads every checkpoint (all hits) and produces identical
// results.
func TestCheckpointDirSkipsWarmup(t *testing.T) {
	o := shardTestOptions()
	plain, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}

	o.CheckpointDir = t.TempDir()
	o.CkptStats = &CkptStats{}
	cold, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := o.CkptStats.Hits.Load(), o.CkptStats.Misses.Load(); h != 0 || m != 2 {
		t.Fatalf("cold batch: hits=%d misses=%d, want 0/2 (one per workload)", h, m)
	}

	o.CkptStats = &CkptStats{}
	warm, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := o.CkptStats.Hits.Load(), o.CkptStats.Misses.Load(); h != 2 || m != 0 {
		t.Fatalf("warm batch: hits=%d misses=%d, want 2/0", h, m)
	}

	if !reflect.DeepEqual(cold, plain) {
		t.Fatal("store-backed cold batch differs from in-memory batch")
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("store-hit batch differs from the batch that built the store")
	}
}
