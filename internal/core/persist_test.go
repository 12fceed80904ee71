package core_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/reference"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// persistSpaceAccel builds the standard persistence workload:
// MinHash-accelerated K-Modes over the shared bootstrap dataset, with
// the accelerator seed and banding exposed so staleness tests can vary
// them.
func persistSpaceAccel(t *testing.T, seed uint64, params lsh.Params) (core.Space, core.Accelerator) {
	t.Helper()
	ds := bootstrapWorkload(t)
	s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewMinHashAccelerator(ds, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

func persistOpts(dir string, shards int) core.Options {
	return core.Options{
		Bootstrap:     core.BootstrapFullScan,
		Update:        core.UpdateDeferred,
		Workers:       4,
		Shards:        shards,
		MaxIterations: 15,
		IndexDir:      dir,
	}
}

func assertPersistEqual(t *testing.T, label string, ref, got *core.Result, refCentroids, gotCentroids []byte) {
	t.Helper()
	for i := range ref.Assign {
		if ref.Assign[i] != got.Assign[i] {
			t.Fatalf("%s: assign[%d] = %d, reference %d", label, i, got.Assign[i], ref.Assign[i])
		}
	}
	if got.Stats.Converged != ref.Stats.Converged {
		t.Fatalf("%s: converged %v, reference %v", label, got.Stats.Converged, ref.Stats.Converged)
	}
	if len(got.Stats.Iterations) != len(ref.Stats.Iterations) {
		t.Fatalf("%s: %d iterations, reference %d",
			label, len(got.Stats.Iterations), len(ref.Stats.Iterations))
	}
	for i := range ref.Stats.Iterations {
		a, b := ref.Stats.Iterations[i], got.Stats.Iterations[i]
		if a.Moves != b.Moves {
			t.Fatalf("%s iteration %d: %d moves, reference %d", label, i+1, b.Moves, a.Moves)
		}
		if a.Cost != b.Cost {
			t.Fatalf("%s iteration %d: cost %v, reference %v", label, i+1, b.Cost, a.Cost)
		}
	}
	if !bytes.Equal(refCentroids, gotCentroids) {
		t.Fatalf("%s: final centroids differ from the reference run", label)
	}
}

// TestWarmStartMatchesCold is the headline persistence equivalence: a
// cold run that builds and saves the index, a warm mmap run, and a
// warm heap run (DisableMmap, the portable oracle) must produce
// bit-identical assignments, per-iteration moves and costs, and final
// centroids — at every shard count, including the unsharded case.
func TestWarmStartMatchesCold(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(map[int]string{1: "shards=1", 2: "shards=2", 4: "shards=4"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			run := func(mut func(*core.Options)) (*core.Result, []byte) {
				space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
				o := persistOpts(dir, shards)
				o.Accelerator = accel
				if mut != nil {
					mut(&o)
				}
				res, err := core.Run(space, o)
				if err != nil {
					t.Fatal(err)
				}
				return res, kmodesFingerprint(t)(space)
			}

			cold, coldCentroids := run(nil)
			if cold.Stats.WarmStart {
				t.Fatal("first run reported a warm start")
			}
			if cold.Stats.IndexSaveTime <= 0 {
				t.Fatal("cold run recorded no index save time")
			}
			if !lsh.IndexSaved(dir) {
				t.Fatalf("cold run left no saved index in %s", dir)
			}

			warm, warmCentroids := run(nil)
			if !warm.Stats.WarmStart {
				t.Fatal("second run did not warm-start from the saved index")
			}
			if warm.Stats.IndexLoadTime <= 0 {
				t.Fatal("warm run recorded no index load time")
			}
			if warm.Stats.IndexSaveTime != 0 {
				t.Fatal("warm run should not re-save the index")
			}
			if persist.MmapSupported && warm.Stats.MmapBytes <= 0 {
				t.Fatal("warm mmap run recorded no mapped bytes")
			}
			assertPersistEqual(t, "warm mmap", cold, warm, coldCentroids, warmCentroids)

			heap, heapCentroids := run(func(o *core.Options) { o.DisableMmap = true })
			if !heap.Stats.WarmStart {
				t.Fatal("heap-load run did not warm-start")
			}
			if heap.Stats.MmapBytes != 0 {
				t.Fatalf("DisableMmap run mapped %d bytes", heap.Stats.MmapBytes)
			}
			assertPersistEqual(t, "warm heap", cold, heap, coldCentroids, heapCentroids)
		})
	}
}

// TestWarmStartStaleRejected pins the manifest checks: a saved index
// must be refused — not silently rebuilt — when the accelerator seed,
// the LSH banding, or the dataset itself has changed underneath it.
func TestWarmStartStaleRejected(t *testing.T) {
	dir := t.TempDir()
	space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	o := persistOpts(dir, 4)
	o.Accelerator = accel
	if _, err := core.Run(space, o); err != nil {
		t.Fatal(err)
	}

	expectStale := func(label string, space core.Space, accel core.Accelerator) {
		t.Helper()
		o := persistOpts(dir, 4)
		o.Accelerator = accel
		_, err := core.Run(space, o)
		if err == nil {
			t.Fatalf("%s: run accepted a stale index", label)
		}
		if !strings.Contains(err.Error(), "stale") {
			t.Fatalf("%s: error = %v, want a stale-index rejection", label, err)
		}
	}

	s2, a2 := persistSpaceAccel(t, 8, lsh.Params{Bands: 8, Rows: 4})
	expectStale("different accelerator seed", s2, a2)

	s3, a3 := persistSpaceAccel(t, 7, lsh.Params{Bands: 4, Rows: 8})
	expectStale("different banding", s3, a3)

	other, err := datagen.Generate(datagen.Config{
		Items: 600, Clusters: 30, Attrs: 16, Domain: 200,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := kmodes.NewSpace(other, kmodes.Config{K: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a4, err := core.NewMinHashAccelerator(other, lsh.Params{Bands: 8, Rows: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	expectStale("different dataset", s4, a4)
}

// TestPersistOptionValidation covers the configurations Run must
// refuse up front rather than fail (or silently ignore) mid-run.
func TestPersistOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*core.Options)
		want string
	}{
		{"snapshot without IndexDir", func(o *core.Options) {
			o.IndexDir = ""
			o.SnapshotEvery = 2
		}, "SnapshotEvery"},
		{"negative SnapshotEvery", func(o *core.Options) {
			o.SnapshotEvery = -1
		}, "SnapshotEvery"},
		{"IndexDir without accelerator", func(o *core.Options) {
			o.Accelerator = nil
		}, "IndexDir"},
		{"IndexDir with seeded bootstrap", func(o *core.Options) {
			o.Bootstrap = core.BootstrapSeeded
		}, "IndexDir"},
		{"IndexDir without persistence support", func(o *core.Options) {
			o.Accelerator = &reference.PerfectRecall{}
		}, "persistence"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
			o := persistOpts(t.TempDir(), 2)
			o.Accelerator = accel
			tc.mut(&o)
			_, err := core.Run(space, o)
			if err == nil {
				t.Fatal("Run accepted an invalid persistence configuration")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestPersistRequiresFingerprint: the SimHash accelerator sits on a
// numeric space with no dataset fingerprint, so asking it to persist
// must fail with a clear error instead of saving an unpinnable index.
func TestPersistRequiresFingerprint(t *testing.T) {
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{
		Points: 400, Clusters: 20, Dim: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a, err := simhash.NewAccelerator(s, lsh.Params{Bands: 8, Rows: 8}, 21)
	if err != nil {
		t.Fatal(err)
	}
	o := persistOpts(t.TempDir(), 2)
	o.Accelerator = a
	_, err = core.Run(s, o)
	if err == nil {
		t.Fatal("Run persisted an index for a non-fingerprintable accelerator")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error = %v, want a fingerprint requirement", err)
	}
}

// TestSnapshotResume interrupts a run at MaxIterations and restarts it
// from the on-disk checkpoint: the resumed run must report where it
// picked up and finish with exactly the state an uninterrupted run
// reaches.
func TestSnapshotResume(t *testing.T) {
	baseSpace, baseAccel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	baseOpts := persistOpts("", 2)
	baseOpts.Accelerator = baseAccel
	base, err := core.Run(baseSpace, baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	baseCentroids := kmodesFingerprint(t)(baseSpace)

	dir := t.TempDir()
	space1, accel1 := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	o1 := persistOpts(dir, 2)
	o1.Accelerator = accel1
	o1.SnapshotEvery = 2
	o1.MaxIterations = 3
	trunc, err := core.Run(space1, o1)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.Stats.Converged {
		t.Fatal("truncated run converged; raise the workload difficulty")
	}
	if _, err := os.Stat(filepath.Join(dir, "state.snap")); err != nil {
		t.Fatalf("truncated run left no checkpoint: %v", err)
	}

	space2, accel2 := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	o2 := persistOpts(dir, 2)
	o2.Accelerator = accel2
	o2.SnapshotEvery = 2
	resumed, err := core.Run(space2, o2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.ResumedAt != 3 {
		t.Fatalf("ResumedAt = %d, want 3 (checkpoint after iteration 2)", resumed.Stats.ResumedAt)
	}
	if !resumed.Stats.WarmStart {
		t.Fatal("resumed run should also warm-start from the saved index")
	}
	resumedCentroids := kmodesFingerprint(t)(space2)

	for i := range base.Assign {
		if base.Assign[i] != resumed.Assign[i] {
			t.Fatalf("assign[%d] = %d after resume, uninterrupted run %d",
				i, resumed.Assign[i], base.Assign[i])
		}
	}
	if resumed.Stats.Converged != base.Stats.Converged {
		t.Fatalf("resumed converged %v, uninterrupted %v",
			resumed.Stats.Converged, base.Stats.Converged)
	}
	if len(resumed.Stats.Iterations) != len(base.Stats.Iterations) {
		t.Fatalf("resumed run logged %d iterations, uninterrupted %d",
			len(resumed.Stats.Iterations), len(base.Stats.Iterations))
	}
	if !bytes.Equal(baseCentroids, resumedCentroids) {
		t.Fatal("final centroids differ between resumed and uninterrupted runs")
	}
}

// TestBootstrapAssignCorruptRescans: a damaged bootstrap-assignment
// cache is a performance artifact, not source data — the run must fall
// back to a fresh scan (and identical results), never fail.
func TestBootstrapAssignCorruptRescans(t *testing.T) {
	dir := t.TempDir()
	run := func() (*core.Result, []byte) {
		space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
		o := persistOpts(dir, 2)
		o.Accelerator = accel
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, kmodesFingerprint(t)(space)
	}
	cold, coldCentroids := run()

	path := filepath.Join(dir, "bootstrap-assign.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, warmCentroids := run()
	if !warm.Stats.WarmStart {
		t.Fatal("corrupt assignment cache must not prevent the index warm start")
	}
	assertPersistEqual(t, "rescan after corruption", cold, warm, coldCentroids, warmCentroids)

	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(healed, raw) {
		t.Fatal("rescan did not rewrite the corrupt assignment cache")
	}
}

// TestBootstrapAssignStaleSampleRescans: a well-formed assignment
// cache (valid CRCs, valid cluster IDs) that disagrees with the exact
// first assignment on one spot-checked item must be rejected by the
// sample recompute and rescanned: the run matches the cold one and the
// file is rewritten.
func TestBootstrapAssignStaleSampleRescans(t *testing.T) {
	dir := t.TempDir()
	run := func() (*core.Result, []byte) {
		space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
		o := persistOpts(dir, 2)
		o.Accelerator = accel
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, kmodesFingerprint(t)(space)
	}
	cold, coldCentroids := run()

	// The cache's sections: 1 = {n, k} as int64, 2 = the assignment.
	path := filepath.Join(dir, "bootstrap-assign.bin")
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := persist.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := persist.View[int64](f, 1)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := persist.View[int32](f, 2)
	if err != nil {
		t.Fatal(err)
	}
	var hdrBytes, assignBytes []byte
	for _, v := range hdr {
		hdrBytes = binary.NativeEndian.AppendUint64(hdrBytes, uint64(v))
	}
	k := int32(hdr[1])
	for i, c := range saved {
		if i == 0 { // item 0 is always in the spot-check sample
			c = (c + 1) % k
		}
		assignBytes = binary.NativeEndian.AppendUint32(assignBytes, uint32(c))
	}
	f.Close()
	if err := persist.WriteFile(path, []persist.Section{
		{ID: 1, ElemSize: 8, Data: hdrBytes},
		{ID: 2, ElemSize: 4, Data: assignBytes},
	}); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	warm, warmCentroids := run()
	if !warm.Stats.WarmStart {
		t.Fatal("a stale assignment cache must not prevent the index warm start")
	}
	assertPersistEqual(t, "rescan after stale sample", cold, warm, coldCentroids, warmCentroids)

	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(healed, stale) {
		t.Fatal("rescan did not rewrite the stale assignment cache")
	}
	if !bytes.Equal(healed, fresh) {
		t.Fatal("rewritten assignment cache differs from the cold run's")
	}
}

// TestShardMemoryBudget runs the warm start under a budget far smaller
// than any shard, forcing the residency manager to demote and promote
// on demand — results must stay identical and the accounting visible.
func TestShardMemoryBudget(t *testing.T) {
	if !persist.MmapSupported {
		t.Skip("residency management requires mmap support")
	}
	dir := t.TempDir()
	run := func(budget int64) (*core.Result, []byte) {
		space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
		o := persistOpts(dir, 4)
		o.Accelerator = accel
		o.ShardMemoryBudget = budget
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, kmodesFingerprint(t)(space)
	}
	cold, coldCentroids := run(0)
	tight, tightCentroids := run(1)
	if !tight.Stats.WarmStart {
		t.Fatal("budgeted run did not warm-start")
	}
	assertPersistEqual(t, "budget=1", cold, tight, coldCentroids, tightCentroids)
	if tight.Stats.ShardPromotions <= 0 {
		t.Fatal("tight budget recorded no shard promotions")
	}
	if tight.Stats.ShardDemotions <= 0 {
		t.Fatal("tight budget recorded no shard demotions")
	}
	if tight.Stats.ResidentShards < 1 {
		t.Fatalf("ResidentShards = %d, want at least the pinned shard", tight.Stats.ResidentShards)
	}
}
