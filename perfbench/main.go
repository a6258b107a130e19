// Command perfbench is the repository's benchmark. It runs one named
// workload through the simulator's public entry points for a fixed
// host-time budget, checks every simulated result against digests
// pinned in pins.json, and prints one JSON result line last:
//
//	go build -o perfbench . && ./perfbench -workload seg_chains -seed 1 -seconds 28 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a separate traced run (CPU profile
// attribution, spans around every public call, runtime counters). See
// README.md for the workloads, the metrics and what each should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		wlName    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Uint64("seed", 1, "run seed; iteration i simulates pinned input seed (seed+i-1) mod 16 + 1")
		seconds   = flag.Int("seconds", 28, "host seconds of measurement")
		traced    = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		workDir   = flag.String("work", ".bench_build/work", "scratch directory for coordinator spools")
		spansDir  = flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
		writePins = flag.String("write-pins", "", "recompute the pinned digests through the reference paths, write them to this file and exit")
	)
	flag.Parse()

	if *writePins != "" {
		if err := writePinFile(*writePins); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloads[*wlName]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *wlName, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{
		wl:       wl,
		sc:       fullScale,
		runSeed:  *seed,
		parallel: runtime.NumCPU(),
		pins:     pins,
		workDir:  *workDir,
	}
	fmt.Printf("# host: %s\n", hostFingerprint())
	fmt.Printf("# settings: workload=%s seed=%d input_seeds=%d,%d,... (cycling through %d pinned) scale=%s n=%d warm=%d parallel=%d seconds=%d trace=%d\n",
		wl.name, *seed, b.seedFor(0), b.seedFor(1), pinnedSeeds, b.sc.name, b.instructions(), b.warmup(), b.concurrency(), *seconds, *traced)

	var res *result
	if *traced == 1 {
		res, err = b.runTraced(*seconds, *spansDir)
	} else {
		res, err = b.runEndToEnd(*seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome: the job accounting and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed one per line before the JSON line.
	notes []string
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes one human-readable line per metric and the JSON result
// line last.
func (r *result) print(f *os.File) error {
	w := bufio.NewWriter(f)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# jobs: attempted=%d failed=%d failed_ratio=%g\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

// hostFingerprint names the host the numbers were measured on, so
// results from different machines are never compared by mistake.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// maxRSSMB returns the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
