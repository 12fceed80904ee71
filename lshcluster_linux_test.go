package lshcluster

import (
	"os"
	"strings"
	"testing"
)

// TestClusterWarmReleasesMapping: a warm-started Cluster call
// memory-maps the saved index, and must unmap it before returning.
// After a cold call and two warm calls, /proc/self/maps may hold no
// mapping of a file under IndexDir.
func TestClusterWarmReleasesMapping(t *testing.T) {
	ds := syntheticDataset(t)
	dir := t.TempDir()
	cfg := Config{K: 15, Seed: 2, LSH: &Params{Bands: 10, Rows: 2}, Shards: 2, MaxIterations: 4, IndexDir: dir}
	for call := 0; call < 3; call++ {
		res, err := Cluster(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if warm := call > 0; res.Stats.WarmStart != warm {
			t.Fatalf("call %d: WarmStart = %v, want %v", call, res.Stats.WarmStart, warm)
		}
		if call > 0 && res.Stats.MmapBytes <= 0 {
			t.Fatalf("call %d: warm start mapped nothing; the check below would be vacuous", call)
		}
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) {
			t.Fatalf("index file still mapped after Cluster returned: %s", line)
		}
	}
}
