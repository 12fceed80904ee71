package core_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// assertActiveEqual runs the configuration with active-set filtering
// (always on for these accelerators) and checks it against the
// full-pass reference driver (assertMatchesReference): assignments,
// per-iteration moves and costs, convergence, and the work counters of
// every pass that ran in full. It also asserts the filter actually
// engaged (some iteration skipped items); otherwise the equivalence
// would be vacuous.
func assertActiveEqual(t *testing.T, mk func() (core.Space, core.Accelerator), opts core.Options) {
	t.Helper()
	act := assertMatchesReference(t, mk, nil, opts)
	skippedAny := false
	for _, it := range act.Stats.Iterations {
		if it.SkippedItems > 0 {
			skippedAny = true
		}
	}
	if len(act.Stats.Iterations) >= 3 && !skippedAny {
		t.Fatal("active-set filter never skipped an item; equivalence test is vacuous")
	}
}

// TestActiveFilterMatchesFullPassKModes drives the MH-K-Modes
// configuration matrix: both tie-break modes, both update modes, serial
// and parallel. The workload converges over several passes with a
// sparse tail, so late passes filter heavily.
func TestActiveFilterMatchesFullPassKModes(t *testing.T) {
	ds := kmodesMatrixWorkload(t)
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
	for _, tb := range []core.TieBreak{core.TieBreakPreferCurrent, core.TieBreakLowestIndex} {
		for _, upd := range []core.UpdateMode{core.UpdateImmediate, core.UpdateDeferred} {
			for _, workers := range []int{1, 4} {
				if workers > 1 && upd != core.UpdateDeferred {
					continue // rejected by core.Run
				}
				name := fmt.Sprintf("tb=%d/upd=%d/w=%d", tb, upd, workers)
				t.Run(name, func(t *testing.T) {
					assertActiveEqual(t, mk, core.Options{
						TieBreak: tb, Update: upd, Workers: workers,
						MaxIterations: 15,
					})
				})
			}
		}
	}
}

// TestActiveFilterMatchesFullPassKMeans drives the SimHash-K-Means
// instantiation (floating-point centroids, conservative change
// reports).
func TestActiveFilterMatchesFullPassKMeans(t *testing.T) {
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
	for _, upd := range []core.UpdateMode{core.UpdateImmediate, core.UpdateDeferred} {
		for _, workers := range []int{1, 4} {
			if workers > 1 && upd != core.UpdateDeferred {
				continue
			}
			name := fmt.Sprintf("upd=%d/w=%d", upd, workers)
			t.Run(name, func(t *testing.T) {
				assertActiveEqual(t, mk, core.Options{
					Update: upd, Workers: workers, MaxIterations: 15,
				})
			})
		}
	}
}

// TestActiveFilterReseedPolicies exercises the empty-cluster reseed
// paths: reseeded clusters must be reported changed, or items near
// them would hold stale assignments.
func TestActiveFilterReseedPolicies(t *testing.T) {
	t.Run("kmodes", func(t *testing.T) {
		ds := kmodesMatrixWorkload(t)
		mk := func() (core.Space, core.Accelerator) {
			s, err := kmodes.NewSpace(ds, kmodes.Config{
				K: 90, Seed: 5, EmptyCluster: kmodes.ReseedRandomItem,
			})
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
			if err != nil {
				t.Fatal(err)
			}
			return s, a
		}
		assertActiveEqual(t, mk, core.Options{MaxIterations: 12})
	})
}

// TestActiveFilterSparseLateIterations asserts the acceptance
// criterion directly: once the run enters its sparse tail, the
// assignment pass evaluates at most 10% of the items.
func TestActiveFilterSparseLateIterations(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Items: 4000, Clusters: 40, Attrs: 16, Domain: 400,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := kmodes.NewSpace(ds, kmodes.Config{K: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	accel, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(space, core.Options{Accelerator: accel, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	iters := res.Stats.Iterations
	if len(iters) < 3 {
		t.Fatalf("only %d iterations; workload too easy to show a sparse tail", len(iters))
	}
	if first := iters[0]; first.ActiveItems != ds.NumItems() {
		t.Fatalf("first pass evaluated %d items, want all %d", first.ActiveItems, ds.NumItems())
	}
	last := iters[len(iters)-1]
	if limit := ds.NumItems() / 10; last.ActiveItems > limit {
		t.Fatalf("final pass evaluated %d items, want ≤ %d (10%% of n)", last.ActiveItems, limit)
	}
}

// countdownCtx is a deterministic cancellation source: Err reports
// context.Canceled from the nth call on, so tests can pin exactly when
// a polling loop observes cancellation without depending on timing.
type countdownCtx struct {
	context.Context
	remaining atomic.Int32
}

func newCountdownCtx(calls int32) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(calls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// countingSpace is a minimal exact Space whose distance evaluations are
// counted atomically; cluster (item+1)%k is always best so passes keep
// moving items and never converge early.
type countingSpace struct {
	n, k  int
	calls atomic.Int64
}

func (s *countingSpace) NumItems() int    { return s.n }
func (s *countingSpace) NumClusters() int { return s.k }
func (s *countingSpace) Dissimilarity(item, cluster int) float64 {
	s.calls.Add(1)
	if cluster == (item+1)%s.k {
		return 0
	}
	return 1
}
func (s *countingSpace) BoundedDissimilarity(item, cluster int, bound float64) float64 {
	return s.Dissimilarity(item, cluster)
}
func (s *countingSpace) RecomputeCentroids(assign []int32) {}
func (s *countingSpace) Cost(assign []int32) float64       { return 0 }

// TestCancellationMidPass verifies that a cancelled context stops the
// assignment pass itself — workers poll inside their loops — instead of
// running every worker to completion and only noticing between passes.
func TestCancellationMidPass(t *testing.T) {
	const n, k = 40_000, 4
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			space := &countingSpace{n: n, k: k}
			// Bootstrap's full scan runs before the countdown matters:
			// budget the pre-bootstrap Err call, the bootstrap scan's
			// in-shard polls (one per 1024-item chunk per worker, see
			// ctxPollEvery) plus its phase-end check, the iteration-top
			// call, and cancel at the first in-pass poll.
			bootPolls := int32(0)
			for g := 0; g < workers; g++ {
				lo, hi := g*n/workers, (g+1)*n/workers
				bootPolls += int32((hi - lo + 1023) / 1024)
			}
			ctx := newCountdownCtx(1 + bootPolls + 1 + 1)
			res, err := core.Run(space, core.Options{
				Workers:       workers,
				SkipCost:      true,
				MaxIterations: 5,
				Context:       ctx,
			})
			if err == nil {
				t.Fatalf("Run returned %v, want cancellation error", res)
			}
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The bootstrap pass legitimately evaluates all n·k
			// distances; the cancelled first iteration must stop after
			// at most one poll interval per worker (plus the items
			// already in flight), far short of another full pass.
			extra := space.calls.Load() - int64(n*k)
			budget := int64(workers) * 2048 * k
			if extra < 0 || extra > budget {
				t.Fatalf("post-bootstrap distance calls = %d, want (0, %d]", extra, budget)
			}
		})
	}
}

// TestCandidatesBlockMatchesCandidates asserts the block querier's
// contract: for every item, CandidatesBlock emits exactly the
// shortlist — contents and order — that the per-item Candidates call
// produces.
func TestCandidatesBlockMatchesCandidates(t *testing.T) {
	ds := kmodesMatrixWorkload(t)
	accel, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	const k = 30
	if err := accel.Reset(k); err != nil {
		t.Fatal(err)
	}
	n := ds.NumItems()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(i % k)
	}
	for i := 0; i < n; i++ {
		if err := accel.Insert(int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, frozen := range []bool{false, true} {
		t.Run(fmt.Sprintf("frozen=%v", frozen), func(t *testing.T) {
			if frozen {
				accel.Freeze()
			}
			ref := accel.NewQuerier()
			bq, ok := accel.NewQuerier().(core.BlockQuerier)
			if !ok {
				t.Fatal("IndexQuerier does not implement BlockQuerier")
			}
			// Oddly-sized blocks straddle block boundaries on purpose.
			for _, blockLen := range []int{1, 7, 64, 129} {
				for lo := 0; lo < n; lo += blockLen {
					hi := lo + blockLen
					if hi > n {
						hi = n
					}
					blk := make([]int32, 0, hi-lo)
					for i := lo; i < hi; i++ {
						blk = append(blk, int32(i))
					}
					bq.CandidatesBlock(blk, assign, func(pos int, shortlist []int32) {
						want := ref.Candidates(blk[pos], assign)
						if len(shortlist) != len(want) {
							t.Fatalf("item %d: block shortlist %v, per-item %v", blk[pos], shortlist, want)
						}
						for j := range want {
							if shortlist[j] != want[j] {
								t.Fatalf("item %d pos %d: block %d, per-item %d",
									blk[pos], j, shortlist[j], want[j])
							}
						}
					})
				}
			}
		})
	}
}
