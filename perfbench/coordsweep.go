package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/experiments"
)

// workerPoll is how often an idle worker re-asks for work. An idle
// worker only exists once every remaining job is leased, and the sweep
// ends when the coordinator holds every result, so the interval does
// not change the measured sweep; a short one lets the benchmark reap
// its workers without waiting out the 2 s default.
const workerPoll = 100 * time.Millisecond

// httpEvent is one request a worker made.
type httpEvent struct {
	path       string
	start, end time.Time
	reqBytes   int64
	jobs       int // jobs granted, for /jobs/lease
}

// httpProbe is the RoundTripper set in coord.Worker.Client: it times
// every request the worker makes, counts the jobs each lease grants and
// records a span per request in a traced run.
type httpProbe struct {
	base   http.RoundTripper
	spans  *spanRecorder
	parent int // the worker's Worker.Run span

	mu     sync.Mutex
	events []httpEvent
}

func (p *httpProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	ev := httpEvent{path: req.URL.Path, start: time.Now(), reqBytes: req.ContentLength}
	sp := p.spans.start("http "+req.Method+" "+req.URL.Path, p.parent)
	resp, err := p.base.RoundTrip(req)
	if err == nil && req.URL.Path == "/jobs/lease" && resp.StatusCode == http.StatusOK {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			p.spans.stop(sp)
			return nil, rerr
		}
		var lr coord.LeaseResponse
		if json.Unmarshal(body, &lr) == nil {
			ev.jobs = len(lr.Jobs)
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	ev.end = time.Now()
	p.spans.stop(sp)
	p.mu.Lock()
	p.events = append(p.events, ev)
	p.mu.Unlock()
	return resp, err
}

// coordSweep is what one sweep_coord sweep measured at the HTTP layer.
type coordSweep struct {
	leaseRTT, completeRTT []float64 // seconds
	leases                int
	uploadBytes           int64
	idle                  float64 // worker-seconds not spent simulating
}

// setupReps is how many times a sweep iteration sets up, so setup_s
// is a median over many samples of a sub-millisecond operation.
const setupReps = 8

// coordinator is one started loopback coordinator.
type coordinator struct {
	srv   *coord.Server
	hs    *httptest.Server
	tr    *http.Transport
	spool string
}

func (c *coordinator) close() {
	c.hs.Close()
	c.tr.CloseIdleConnections()
	os.RemoveAll(c.spool)
}

// startCoordinator is sweep_coord's set-up: plan the grid, start the
// coordinator, mount its handler on a loopback server and fetch the
// spec a worker starts from. The spool directory is made first and not
// timed, as an operator names an existing one.
func (b *bench) startCoordinator(o experiments.Options, parent int) (*coordinator, []experiments.JobSpec, float64, error) {
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	spool, err := os.MkdirTemp(b.workDir, "spool")
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	sp := b.spans.start("experiments.GridPlan", parent)
	_, plan, err := experiments.GridPlan(o, "fig2")
	b.spans.stop(sp)
	if err != nil {
		os.RemoveAll(spool)
		return nil, nil, 0, err
	}
	sp = b.spans.start("coord.NewServer", parent)
	srv, err := coord.NewServer(coord.Config{Experiment: "fig2", Options: o, SpoolDir: spool})
	b.spans.stop(sp)
	if err != nil {
		os.RemoveAll(spool)
		return nil, nil, 0, err
	}
	sp = b.spans.start("coord.Server.Handler", parent)
	h := srv.Handler()
	b.spans.stop(sp)
	sp = b.spans.start("httptest.NewServer", parent)
	c := &coordinator{srv: srv, hs: httptest.NewServer(h), tr: &http.Transport{}, spool: spool}
	b.spans.stop(sp)
	resp, err := (&http.Client{Transport: &httpProbe{base: c.tr, spans: b.spans, parent: parent}}).Get(c.hs.URL + "/spec")
	if err != nil {
		c.close()
		return nil, nil, 0, err
	}
	var spec coord.Spec
	err = json.NewDecoder(resp.Body).Decode(&spec)
	resp.Body.Close()
	if err != nil {
		c.close()
		return nil, nil, 0, fmt.Errorf("spec: %w", err)
	}
	return c, plan, time.Since(t0).Seconds(), nil
}

// coordSweepIteration runs the grid through an in-process loopback
// coordinator and one batch-1, Parallel-1 worker per CPU. The sweep
// runs from the workers' start until the coordinator holds every
// result. A job runs from the end of the lease that granted it to the
// start of the upload that completes it.
func (b *bench) coordSweepIteration(seed uint64) (*iteration, error) {
	it := newIteration(seed)
	o := b.sweepOptions(seed)
	iterSpan := b.spans.start("iteration", 0)
	defer b.spans.stop(iterSpan)
	var (
		c    *coordinator
		plan []experiments.JobSpec
	)
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.close()
		}
		var secs float64
		var err error
		if c, plan, secs, err = b.startCoordinator(o, iterSpan); err != nil {
			return nil, err
		}
		it.setup = append(it.setup, secs)
	}
	defer c.close()
	t1 := time.Now()

	probes := make([]*httpProbe, b.parallel)
	runSpans := make([]int, b.parallel)
	finished := make([]time.Time, b.parallel)
	errs := make([]error, b.parallel)
	var wg sync.WaitGroup
	allDone := make(chan struct{})
	for i := range probes {
		runSpans[i] = b.spans.start("coord.Worker.Run", iterSpan)
		probes[i] = &httpProbe{base: c.tr, spans: b.spans, parent: runSpans[i]}
		w := &coord.Worker{
			URL:       c.hs.URL,
			Name:      fmt.Sprintf("bench-%d", i),
			BatchSize: 1,
			Parallel:  1,
			Client:    &http.Client{Transport: probes[i]},
			Poll:      workerPoll,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run()
			finished[i] = time.Now()
			b.spans.stop(runSpans[i])
		}(i)
	}
	go func() { wg.Wait(); close(allDone) }()
	select {
	case <-c.srv.Done():
	case <-allDone:
	}
	t2 := time.Now()
	<-allDone
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	select {
	case <-c.srv.Done():
	default:
		return nil, fmt.Errorf("workers exited before the grid completed")
	}

	it.simSeconds = t2.Sub(t1).Seconds()
	cs := &coordSweep{}
	for i, p := range probes {
		busy := 0.0
		var leased time.Time
		for _, ev := range p.events {
			switch ev.path {
			case "/jobs/lease":
				cs.leases++
				cs.leaseRTT = append(cs.leaseRTT, ev.end.Sub(ev.start).Seconds())
				if ev.jobs > 0 {
					leased = ev.end
				}
			case "/jobs/complete":
				cs.completeRTT = append(cs.completeRTT, ev.end.Sub(ev.start).Seconds())
				cs.uploadBytes += ev.reqBytes
				if !leased.IsZero() {
					job := ev.start.Sub(leased).Seconds()
					b.spans.record("job", runSpans[i], leased, ev.start)
					it.jobs = append(it.jobs, job)
					busy += job
					leased = time.Time{}
				}
			}
		}
		cs.idle += finished[i].Sub(t1).Seconds() - busy
	}
	it.coord = cs
	if err := b.checkShard(it, c.srv.Merged(), plan); err != nil {
		return nil, err
	}
	return it, nil
}
