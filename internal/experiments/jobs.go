package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Grid-plan and job-subset entry points for the sweep coordinator
// (internal/coord): the coordinator enumerates an experiment's grid
// once, hands out job keys under leases, and each worker's JobRunner
// simulates exactly the named subset, returning a fragment ShardFile the
// coordinator accumulates into the file a single-process RunShard(0,1)
// run would have written.

// JobSpec describes one grid point for scheduling purposes: its stable
// key and the "+"-joined context set it simulates (the coordinator
// orders jobs by its context count, and groups them by it).
type JobSpec struct {
	// Key is the grid point's unique key, stable across processes.
	Key string
	// Workload is the ordered context set, elements joined with "+".
	Workload string
}

// GridPlan enumerates the named experiment's grid under o and returns
// the empty shard-file skeleton a single-process RunShard(0,1) run
// would produce — every header field set, Results empty — plus the
// job list in key order. The skeleton is what a coordinator validates
// incoming fragments against and accumulates completed results into;
// once full, its serialized form is byte-identical to the
// single-process run's.
func GridPlan(o Options, experiment string) (*ShardFile, []JobSpec, error) {
	if err := o.validateBenchmarks(); err != nil {
		return nil, nil, err
	}
	jobs, err := experimentJobs(experiment, o)
	if err != nil {
		return nil, nil, err
	}
	specs := make([]JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = JobSpec{Key: j.key, Workload: j.wl}
	}
	return newShardFile(o, experiment, jobs, 0, 1), specs, nil
}

// JobRunner simulates leased subsets of one experiment's grid for a
// coordinator worker. It plans the grid once and owns one checkpoint
// cache and one store client for its whole life, so consecutive batches
// over the same context set fork the same warm checkpoint instead of
// re-warming it, and a remote store's failure state carries across
// batches. Between batches it keeps at most one idle checkpoint (see
// ckCache). Run is not safe for concurrent use.
type JobRunner struct {
	experiment string
	header     ShardFile
	byKey      map[string]job
	cks        *ckCache
}

// NewJobRunner plans the named experiment's grid under o.
func NewJobRunner(o Options, experiment string) (*JobRunner, error) {
	if err := o.validateBenchmarks(); err != nil {
		return nil, err
	}
	jobs, err := experimentJobs(experiment, o)
	if err != nil {
		return nil, err
	}
	r := &JobRunner{
		experiment: experiment,
		header:     *newShardFile(o, experiment, jobs, 0, 1),
		byKey:      make(map[string]job, len(jobs)),
		cks:        o.newCkCache(true),
	}
	for _, j := range jobs {
		r.byKey[j.key] = j
	}
	return r, nil
}

// Run simulates exactly the named grid points and returns them as a
// fragment: a ShardFile with the single-process header (shard 0 of 1,
// TotalJobs the whole grid) whose Results hold only the requested keys.
// Fragments from disjoint key sets accumulate into the full
// single-process file. Unknown or repeated keys are rejected before any
// simulation is spent.
func (r *JobRunner) Run(keys []string) (*ShardFile, error) {
	mine := make([]job, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		j, ok := r.byKey[k]
		if !ok {
			return nil, fmt.Errorf("experiments: job %q is not in %s's grid", k, r.experiment)
		}
		if seen[k] {
			return nil, fmt.Errorf("experiments: job %q requested twice", k)
		}
		seen[k] = true
		mine = append(mine, j)
	}
	res, err := r.cks.runBatch(mine)
	if err != nil {
		return nil, err
	}
	sf := r.header
	sf.Results = make(map[string]*RecordedResult, len(res))
	sf.record(r.cks.o, res)
	return &sf, nil
}

// Warmups returns how many checkpoints the runner has warmed itself
// (store hits excluded).
func (r *JobRunner) Warmups() int { return int(r.cks.warmups.Load()) }

// Close releases every checkpoint the runner still holds. The runner
// must not be used afterwards.
func (r *JobRunner) Close() {
	c := r.cks
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.m {
		c.releaseLocked(e)
	}
}

// Header returns the canonical header string every shard or fragment
// of one sweep must agree on (experiment, scale, seed, context shape,
// partition, grid size, workload set). Exported for the coordinator's
// fragment validation; MergeShards uses the same string internally.
func (sf *ShardFile) Header() string { return sf.header() }

// MarshalPretty serialises a shard file exactly as `iqbench -shard`
// and `-merge` write it: indented JSON plus a trailing newline. The
// encoding is deterministic (Go sorts map keys), so identical result
// sets produce identical bytes — the property the coordinator's
// cmp-vs-single-process contract rests on.
func (sf *ShardFile) MarshalPretty() ([]byte, error) {
	b, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ContextCount returns the number of hardware contexts a "+"-joined
// workload string names.
func ContextCount(workload string) int {
	return strings.Count(workload, "+") + 1
}
