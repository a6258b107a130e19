package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark side of the boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the time children cover
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run stays untraced.
type spanRecorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// start opens a span under parent and returns its id (0 when nil).
func (r *spanRecorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// stop closes the span with the given id.
func (r *spanRecorder) stop(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// record adds a span whose interval was observed after the fact.
func (r *spanRecorder) record(name string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
}

// finish computes every span's self time: its duration minus the union
// of its children's intervals clipped to it. Children of one parent may
// overlap (parallel workers), so the union is taken, not the sum.
func (r *spanRecorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := append([]span(nil), r.spans...)
	for i := range out {
		s := &out[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return out
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	name        string
	count       int
	total, self time.Duration
}

// write saves every span as JSON under dir and returns per-name totals,
// largest self time first.
func (r *spanRecorder) write(dir, file string) ([]spanTotal, error) {
	spans := r.finish()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, file), append(b, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	byName := map[string]*spanTotal{}
	var totals []spanTotal
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{name: s.Name}
			byName[s.Name] = t
		}
		t.count++
		t.total += time.Duration(s.End - s.Start)
		t.self += time.Duration(s.Self)
	}
	for _, t := range byName {
		totals = append(totals, *t)
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i].self > totals[j].self })
	return totals, nil
}
