package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// pinnedSeeds is how many input seeds pins.json pins, at both scales.
// Seed s maps to input seed (s+pinnedSeeds-1) mod pinnedSeeds + 1, so
// seeds 1..pinnedSeeds map to themselves and every job is checked.
const pinnedSeeds = 16

func inputSeed(s uint64) uint64 { return (s+pinnedSeeds-1)%pinnedSeeds + 1 }

// filePins is the pin table of whole shard files: the SHA-256 of the
// single-process RunShard(0,1) file of the fig2 grid, under job fileJob.
const (
	filePins = "fig2-file"
	fileJob  = "single-process"
)

func fileDigest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// digest fingerprints one job's simulated outcome: its workload, queue,
// committed instructions, cycles and every statistic, bit for bit.
func digest(workload, queue string, instructions, cycles int64, stats map[string]float64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d", workload, queue, instructions, cycles)
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "|%s=%x", k, math.Float64bits(stats[k]))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinFile maps pin table → scale → input seed → job → digest.
type pinFile map[string]map[string]map[string]map[string]string

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// lookup returns the pinned digest, or "" when none is pinned (which
// then fails the job).
func (p pinFile) lookup(table, scale string, seed uint64, job string) string {
	return p[table][scale][strconv.FormatUint(seed, 10)][job]
}

func (p pinFile) set(table, scale string, seed uint64, job, d string) {
	if p[table] == nil {
		p[table] = map[string]map[string]map[string]string{}
	}
	if p[table][scale] == nil {
		p[table][scale] = map[string]map[string]string{}
	}
	s := strconv.FormatUint(seed, 10)
	if p[table][scale][s] == nil {
		p[table][scale][s] = map[string]string{}
	}
	p[table][scale][s][job] = d
}

// writePinFile recomputes every pinned digest through reference paths
// other than the ones the workloads time: cold sim.RunWorkloadWarm runs
// for the single-run workloads, and a serial RunShard without prefix
// sharing for the fig2 grid.
func writePinFile(path string) error {
	p := pinFile{}
	for _, sc := range []scale{fullScale, tinyScale} {
		for seed := uint64(1); seed <= pinnedSeeds; seed++ {
			for _, table := range []string{"seg_chains", "ideal_lsq"} {
				cfg := workloads[table].cfg()
				for _, name := range singleTraces {
					r, err := sim.RunWorkloadWarm(cfg, name, seed, sc.single, sc.singleWarm)
					if err != nil {
						return fmt.Errorf("%s %s seed %d: %w", table, name, seed, err)
					}
					p.set(table, sc.name, seed, name, digest(r.Workload, r.QueueName, r.Instructions, r.Cycles, r.Stats.Values()))
				}
			}
			o := experiments.Options{
				Instructions:  sc.sweep,
				Warmup:        sc.sweepWarm,
				Seed:          seed,
				Benchmarks:    sweepBenchmarks,
				Parallel:      1,
				NoPrefixShare: true,
			}
			sf, err := experiments.RunShard(o, "fig2", 0, 1)
			if err != nil {
				return fmt.Errorf("fig2 seed %d: %w", seed, err)
			}
			for key, r := range sf.Results {
				p.set("fig2", sc.name, seed, key, digest(r.Workload, r.QueueName, r.Instructions, r.Cycles, r.Stats))
			}
			file, err := sf.MarshalPretty()
			if err != nil {
				return err
			}
			p.set(filePins, sc.name, seed, fileJob, fileDigest(file))
			fmt.Fprintf(os.Stderr, "pinned %s scale seed %d\n", sc.name, seed)
		}
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
