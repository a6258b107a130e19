package experiments

import (
	"encoding/json"
	"testing"
)

// FuzzMergeShards feeds arbitrary bytes, decoded as a JSON array of
// shard files, through the path `iqbench -merge` takes with files from
// other hosts: MergeShards, then SimResults. Neither may panic, and a
// merge that succeeds must be a complete single-process file with a
// result for every grid point. The seed corpus is checked in under
// testdata/fuzz/FuzzMergeShards.
func FuzzMergeShards(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var files []*ShardFile
		if err := json.Unmarshal(body, &files); err != nil {
			return
		}
		for _, sf := range files {
			if sf == nil {
				return // iqbench decodes each file into its own ShardFile
			}
		}
		merged, err := MergeShards(files)
		if err != nil {
			return
		}
		if merged.Shard != 0 || merged.NumShards != 1 {
			t.Fatalf("merged file is shard %d of %d", merged.Shard, merged.NumShards)
		}
		for key, r := range merged.Results {
			if r == nil {
				t.Fatalf("merged a null result for %q", key)
			}
		}
		if res := merged.SimResults(); len(res) != merged.TotalJobs {
			t.Fatalf("%d results for a %d-job grid", len(res), merged.TotalJobs)
		}
	})
}
