package core_test

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

func bootstrapWorkload(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Items: 600, Clusters: 30, Attrs: 16, Domain: 200,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func kmodesFingerprint(t *testing.T) func(core.Space) []byte {
	return func(s core.Space) []byte {
		var buf bytes.Buffer
		if err := s.(*kmodes.Space).Model().Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
}

// TestParallelBootstrapMatchesSerialKModes is the headline equivalence
// matrix: MinHash-accelerated K-Modes across bootstrap modes, update
// modes and worker counts (including workers=1, where the pipeline
// still takes the presign + direct-to-frozen path), each checked
// against the reference driver's serial per-item Insert bootstrap:
// assignments, per-iteration moves and costs, convergence, full-pass
// work counters and the final centroids.
func TestParallelBootstrapMatchesSerialKModes(t *testing.T) {
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
		for _, upd := range []core.UpdateMode{core.UpdateImmediate, core.UpdateDeferred} {
			for _, workers := range []int{1, 4} {
				if workers > 1 && upd != core.UpdateDeferred {
					continue // rejected by core.Run
				}
				name := fmt.Sprintf("boot=%d/upd=%d/w=%d", boot, upd, workers)
				t.Run(name, func(t *testing.T) {
					assertMatchesReference(t, mk, kmodesFingerprint(t), core.Options{
						Bootstrap: boot, Update: upd, Workers: workers,
						MaxIterations: 15,
					})
				})
			}
		}
	}
}

// TestParallelBootstrapMatchesSerialKMeans covers the SimHash/K-Means
// instantiation of the same pipeline.
func TestParallelBootstrapMatchesSerialKMeans(t *testing.T) {
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
				assertMatchesReference(t, mk, fingerprint, core.Options{
					Bootstrap: boot, Update: core.UpdateDeferred, Workers: workers,
					MaxIterations: 15,
				})
			})
		}
	}
}

// TestParallelBootstrapExactScan covers the non-accelerated run: the
// bootstrap full scan shards across workers and must stay
// bit-identical to the reference driver's serial scan.
func TestParallelBootstrapExactScan(t *testing.T) {
	ds := bootstrapWorkload(t)
	mk := func() (core.Space, core.Accelerator) {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return s, nil
	}
	assertMatchesReference(t, mk, kmodesFingerprint(t), core.Options{
		Workers: 4, MaxIterations: 10,
	})
}

// TestBootstrapPhaseTimings checks the per-phase bootstrap split is
// recorded: the pipeline reports non-zero signing, build and
// assignment phases, and the phases never exceed the bootstrap total.
func TestBootstrapPhaseTimings(t *testing.T) {
	ds := bootstrapWorkload(t)
	s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(s, core.Options{
		Accelerator: a, Workers: 2, Update: core.UpdateDeferred, MaxIterations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.BootstrapSign <= 0 {
		t.Fatal("pipeline reported no signing phase")
	}
	if st.BootstrapBuild <= 0 {
		t.Fatal("no build phase recorded")
	}
	if st.BootstrapAssign <= 0 {
		t.Fatal("no assignment phase recorded")
	}
	if sum := st.BootstrapSign + st.BootstrapBuild + st.BootstrapAssign; sum > st.Bootstrap {
		t.Fatalf("phase sum %v exceeds bootstrap %v", sum, st.Bootstrap)
	}
}

// TestBootstrapCancellation checks the bootstrap honours
// Options.Context: a cancelled context stops the bootstrap scan after
// at most one poll interval per worker instead of completing the whole
// first assignment, and the accelerated pipeline aborts cleanly at a
// phase boundary.
func TestBootstrapCancellation(t *testing.T) {
	const n, k = 40_000, 4
	for _, workers := range []int{1, 4} {
		space := &countingSpace{n: n, k: k}
		ctx := newCountdownCtx(1) // pre-bootstrap check passes; first in-scan poll cancels
		_, err := core.Run(space, core.Options{
			Workers: workers, SkipCost: true, MaxIterations: 2, Context: ctx,
		})
		if err != context.Canceled {
			t.Fatalf("w=%d: err = %v, want context.Canceled", workers, err)
		}
		// Each worker evaluates at most one poll chunk (1024 items × k
		// distances) before observing the cancellation.
		if calls, budget := space.calls.Load(), int64(workers)*1024*k; calls > budget {
			t.Fatalf("w=%d: %d distance calls after cancellation, want ≤ %d", workers, calls, budget)
		}
	}

	// Accelerated pipeline: cancellation between phases aborts the run.
	ds := bootstrapWorkload(t)
	s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Run(s, core.Options{
		Accelerator: a, Workers: 2, Update: core.UpdateDeferred,
		MaxIterations: 2, Context: newCountdownCtx(1),
	})
	if err != context.Canceled {
		t.Fatalf("accelerated: err = %v, want context.Canceled", err)
	}

	// kmodes.Space takes the posting-list scan (core.ExactScanner); it
	// must keep the per-chunk polling, exact and accelerated alike.
	scanDS, err := datagen.Generate(datagen.Config{
		Items: 20_000, Clusters: 30, Attrs: 12, Domain: 200, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, accelerated := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("kmodes/accelerated=%v/w=%d", accelerated, workers), func(t *testing.T) {
				inner, err := kmodes.NewSpace(scanDS, kmodes.Config{K: 30, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				ctx := &armedCtx{Context: context.Background()}
				space := &armedScanSpace{Space: inner, ctx: ctx}
				opts := core.Options{Workers: workers, MaxIterations: 2, Context: ctx}
				if accelerated {
					a, err := core.NewMinHashAccelerator(scanDS, lsh.Params{Bands: 8, Rows: 4}, 7)
					if err != nil {
						t.Fatal(err)
					}
					opts.Accelerator, opts.Update = a, core.UpdateDeferred
				}
				if _, err := core.Run(space, opts); err != context.Canceled {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				// Each worker scans at most one poll chunk before it
				// observes the cancellation.
				calls := space.calls.Load()
				if calls == 0 {
					t.Fatal("the bootstrap never reached the ExactScanner scan")
				}
				if budget := int64(workers) * 1024; calls > budget {
					t.Fatalf("%d NearestExact calls after cancellation, want ≤ %d", calls, budget)
				}
			})
		}
	}
}

// armedScanSpace is a kmodes.Space that arms ctx when the bootstrap's
// exact scan begins — so the scan's first poll cancels — and counts the
// scan's NearestExact calls.
type armedScanSpace struct {
	*kmodes.Space
	ctx   *armedCtx
	calls atomic.Int64
}

func (s *armedScanSpace) BeginExactScan() {
	s.Space.BeginExactScan()
	s.ctx.armed.Store(true)
}

func (s *armedScanSpace) NearestExact(item int, scratch []int32) int {
	s.calls.Add(1)
	return s.Space.NearestExact(item, scratch)
}

// armedCtx reports cancellation once armed.
type armedCtx struct {
	context.Context
	armed atomic.Bool
}

func (c *armedCtx) Err() error {
	if c.armed.Load() {
		return context.Canceled
	}
	return nil
}
