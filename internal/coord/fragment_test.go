package coord

import (
	"encoding/json"
	"testing"

	"repro/internal/experiments"
)

// FuzzFragment feeds arbitrary bytes to the coordinator's fragment
// decoder, the one that takes result uploads from workers. It must never
// panic, and a fragment it accepts must carry the coordinator's own
// header and only keys of its grid, each with a result (a null one would
// count toward completion and reach the merged file).
func FuzzFragment(f *testing.F) {
	o := coordTestOptions()
	s, err := NewServer(Config{Experiment: "table2", Options: o, SpoolDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	skeleton, specs, err := experiments.GridPlan(o, "table2")
	if err != nil {
		f.Fatal(err)
	}
	frag := *skeleton
	frag.Results = map[string]*experiments.RecordedResult{
		specs[0].Key: {Workload: "swim", QueueName: "segmented", Instructions: 2000, Cycles: 1000, IPC: 2,
			Stats: map[string]float64{"chains_avg": 3.5}},
	}
	valid, err := json.Marshal(&frag)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	frag.Results = map[string]*experiments.RecordedResult{"nope/swim": {}}
	foreign, _ := json.Marshal(&frag)
	f.Add(foreign)
	frag.Results = map[string]*experiments.RecordedResult{specs[0].Key: nil}
	null, _ := json.Marshal(&frag)
	f.Add(null)
	frag.Results = nil
	frag.Seed++
	mismatch, _ := json.Marshal(&frag)
	f.Add(mismatch)
	f.Add([]byte(`{"Schema":1}`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := s.parseFragment(body)
		if err != nil {
			return
		}
		if got.Schema != experiments.ShardSchema {
			t.Fatalf("accepted schema %d", got.Schema)
		}
		if got.Header() != skeleton.Header() {
			t.Fatalf("accepted header %q, want %q", got.Header(), skeleton.Header())
		}
		for key, r := range got.Results {
			if _, ok := s.rank[key]; !ok {
				t.Fatalf("accepted key %q outside the grid", key)
			}
			if r == nil {
				t.Fatalf("accepted a null result for %q", key)
			}
		}
	})
}
