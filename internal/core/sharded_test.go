package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/reference"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// assertShardsEqual runs the same configuration at every given shard
// count, with Shards=1 (the unsharded oracle) as reference, and
// asserts bit-identical outcomes: assignments, per-iteration moves and
// costs, convergence, and final centroids. Each sharded count is
// additionally run against its two hot-path oracles — the key-probe
// fan-out (a one-byte ForeignSlotBudget, checking the materialised
// foreign-slot arrays) and the scalar kernels (ScalarKernels, checking
// the unrolled distance/signing loops) — which must also match the
// reference.
func assertShardsEqual(t *testing.T, mk func() (core.Space, core.Accelerator), fingerprint func(core.Space) []byte, opts core.Options, shardCounts []int) {
	t.Helper()
	run := func(shards int, mut func(*core.Options)) (*core.Result, []byte) {
		o := opts
		o.Shards = shards
		space, accel := mk()
		o.Accelerator = accel
		if mut != nil {
			mut(&o)
		}
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, fingerprint(space)
	}
	ref, refCentroids := run(1, nil)
	compare := func(label string, got *core.Result, gotCentroids []byte) {
		t.Helper()
		for i := range ref.Assign {
			if ref.Assign[i] != got.Assign[i] {
				t.Fatalf("%s: assign[%d] = %d, oracle %d", label, i, got.Assign[i], ref.Assign[i])
			}
		}
		if got.Stats.Converged != ref.Stats.Converged {
			t.Fatalf("%s: converged %v, oracle %v", label, got.Stats.Converged, ref.Stats.Converged)
		}
		if len(got.Stats.Iterations) != len(ref.Stats.Iterations) {
			t.Fatalf("%s: %d iterations, oracle %d",
				label, len(got.Stats.Iterations), len(ref.Stats.Iterations))
		}
		for i := range ref.Stats.Iterations {
			a, b := ref.Stats.Iterations[i], got.Stats.Iterations[i]
			if a.Moves != b.Moves {
				t.Fatalf("%s iteration %d: %d moves, oracle %d", label, i+1, b.Moves, a.Moves)
			}
			if a.Cost != b.Cost {
				t.Fatalf("%s iteration %d: cost %v, oracle %v", label, i+1, b.Cost, a.Cost)
			}
			if a.CandidatesTotal != b.CandidatesTotal {
				t.Fatalf("%s iteration %d: %d candidates, oracle %d",
					label, i+1, b.CandidatesTotal, a.CandidatesTotal)
			}
		}
		if !bytes.Equal(refCentroids, gotCentroids) {
			t.Fatalf("%s: final centroids differ from the unsharded oracle", label)
		}
	}
	for _, shards := range shardCounts {
		if shards == 1 {
			continue
		}
		got, gotCentroids := run(shards, nil)
		compare(fmt.Sprintf("shards=%d", shards), got, gotCentroids)
		if got.Stats.Shards != shards {
			t.Fatalf("shards=%d: stats recorded %d shards", shards, got.Stats.Shards)
		}
		// These workloads fit the default foreign-slot budget, so the
		// default sharded run must have materialised and fanned out by
		// direct loads.
		if got.Stats.ForeignSlotBytes <= 0 {
			t.Fatalf("shards=%d: no foreign-slot bytes recorded", shards)
		}
		if got.Stats.CrossShardDirect <= 0 {
			t.Fatalf("shards=%d: no direct fan-out ops recorded", shards)
		}
		probeRun, probeCentroids := run(shards, func(o *core.Options) { o.ForeignSlotBudget = 1 })
		compare(fmt.Sprintf("shards=%d/probe-oracle", shards), probeRun, probeCentroids)
		if probeRun.Stats.ForeignSlotBytes != 0 {
			t.Fatalf("shards=%d: probe oracle recorded %d foreign-slot bytes",
				shards, probeRun.Stats.ForeignSlotBytes)
		}
		if probeRun.Stats.CrossShardDirect != 0 {
			t.Fatalf("shards=%d: probe oracle recorded %d direct fan-out ops",
				shards, probeRun.Stats.CrossShardDirect)
		}
		scalarRun, scalarCentroids := run(shards, func(o *core.Options) { o.ScalarKernels = true })
		compare(fmt.Sprintf("shards=%d/scalar-kernels", shards), scalarRun, scalarCentroids)
	}
	// The kernel oracle must hold on the unsharded reference path too.
	scalarRef, scalarRefCentroids := run(1, func(o *core.Options) { o.ScalarKernels = true })
	compare("shards=1/scalar-kernels", scalarRef, scalarRefCentroids)
}

// TestShardInvarianceKModes is the headline shard-count equivalence
// matrix for MH-K-Modes: full runs must be bit-identical across
// Shards ∈ {1, 2, 4} for both bootstrap modes and both worker counts.
func TestShardInvarianceKModes(t *testing.T) {
	ds := bootstrapWorkload(t)
	mk := func() (core.Space, core.Accelerator) {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return s, a
	}
	for _, boot := range []core.BootstrapMode{core.BootstrapFullScan, core.BootstrapSeeded} {
		for _, workers := range []int{1, 4} {
			upd := core.UpdateImmediate
			if workers > 1 {
				upd = core.UpdateDeferred
			}
			t.Run(fmt.Sprintf("boot=%d/w=%d", boot, workers), func(t *testing.T) {
				assertShardsEqual(t, mk, kmodesFingerprint(t), core.Options{
					Bootstrap: boot, Update: upd, Workers: workers,
					MaxIterations: 15,
				}, []int{1, 2, 4})
			})
		}
	}
}

// TestShardInvarianceKMeans covers the SimHash/K-Means instantiation
// of the same matrix.
func TestShardInvarianceKMeans(t *testing.T) {
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{
		Points: 800, Clusters: 40, Dim: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (core.Space, core.Accelerator) {
		s, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: 40, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		a, err := simhash.NewAccelerator(s, lsh.Params{Bands: 8, Rows: 8}, 21)
		if err != nil {
			t.Fatal(err)
		}
		return s, a
	}
	fingerprint := func(s core.Space) []byte {
		var buf bytes.Buffer
		sp := s.(*kmeans.Space)
		for c := 0; c < sp.NumClusters(); c++ {
			fmt.Fprintf(&buf, "%x;", sp.Centroid(c))
		}
		return buf.Bytes()
	}
	for _, boot := range []core.BootstrapMode{core.BootstrapFullScan, core.BootstrapSeeded} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("boot=%d/w=%d", boot, workers), func(t *testing.T) {
				assertShardsEqual(t, mk, fingerprint, core.Options{
					Bootstrap: boot, Update: core.UpdateDeferred, Workers: workers,
					MaxIterations: 15,
				}, []int{1, 2, 4})
			})
		}
	}
}

// TestShardInvarianceSerialOracle crosses sharding with the serial
// reference driver: the parallel pipeline at Shards 1 and 4 must match
// the reference's per-item sign+insert path over one shard.
func TestShardInvarianceSerialOracle(t *testing.T) {
	ds := bootstrapWorkload(t)
	mk := func() (core.Space, core.Accelerator) {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return s, a
	}
	for _, boot := range []core.BootstrapMode{core.BootstrapFullScan, core.BootstrapSeeded} {
		t.Run(fmt.Sprintf("boot=%d", boot), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				assertMatchesReference(t, mk, kmodesFingerprint(t), core.Options{
					Bootstrap: boot, Shards: shards, MaxIterations: 12,
				})
			}
		})
	}
}

// TestShardStatsRecorded checks the ShardStatsReporter plumbing: a
// sharded run records the shard count, one build time per shard, and
// (having fanned queries out across shards) a non-zero cross-shard
// merge time; the unsharded oracle records exactly one shard and no
// merge time.
func TestShardStatsRecorded(t *testing.T) {
	ds := bootstrapWorkload(t)
	run := func(shards int) *core.Result {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(s, core.Options{
			Accelerator: a, Shards: shards, MaxIterations: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	st := run(4).Stats
	if st.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", st.Shards)
	}
	if len(st.BootstrapBuildShards) != 4 {
		t.Fatalf("BootstrapBuildShards has %d entries, want 4", len(st.BootstrapBuildShards))
	}
	if st.CrossShardMerge <= 0 {
		t.Fatal("sharded run recorded no cross-shard merge time")
	}
	if st.ForeignSlotBytes <= 0 {
		t.Fatal("sharded run under the default budget recorded no foreign-slot bytes")
	}
	if st.CrossShardDirect <= 0 {
		t.Fatal("sharded run recorded no direct fan-out ops")
	}
	st = run(1).Stats
	if st.Shards != 1 {
		t.Fatalf("oracle Shards = %d, want 1", st.Shards)
	}
	if st.CrossShardMerge != 0 {
		t.Fatalf("oracle recorded cross-shard merge time %v", st.CrossShardMerge)
	}
	if st.ForeignSlotBytes != 0 || st.CrossShardProbes != 0 || st.CrossShardDirect != 0 {
		t.Fatalf("oracle recorded cross-shard fan-out state: %d bytes, %d probes, %d direct",
			st.ForeignSlotBytes, st.CrossShardProbes, st.CrossShardDirect)
	}
}

// TestShardsIgnoredWithoutCapability checks Options.Shards degrades to
// a no-op for accelerators without the ShardedIndexer capability.
func TestShardsIgnoredWithoutCapability(t *testing.T) {
	ds := bootstrapWorkload(t)
	s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(s, core.Options{
		Accelerator: &reference.PerfectRecall{}, Shards: 4, MaxIterations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shards != 0 {
		t.Fatalf("capability-less accelerator reported %d shards", res.Stats.Shards)
	}
}
