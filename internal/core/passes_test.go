package core_test

import (
	"fmt"
	"testing"

	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/reference"

	"lshcluster/internal/core"
)

// assertMatchesReference runs opts through core.Run and through
// reference.Run, each on a fresh space and accelerator from mk, and
// requires identical results (reference.Diff: assignment, per-pass
// moves and cost, convergence, and the work counters of every full
// pass) and, when fingerprint is non-nil, identical final centroids.
// It returns the production result.
func assertMatchesReference(t *testing.T, mk func() (core.Space, core.Accelerator), fingerprint func(core.Space) []byte, opts core.Options) *core.Result {
	t.Helper()
	run := func(drive func(core.Space, core.Options) (*core.Result, error)) (*core.Result, string) {
		space, accel := mk()
		o := opts
		o.Accelerator = accel
		res, err := drive(space, o)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint == nil {
			return res, ""
		}
		return res, string(fingerprint(space))
	}
	got, gotCentroids := run(core.Run)
	want, wantCentroids := run(reference.Run)
	if err := reference.Diff(got, want); err != nil {
		t.Fatal(err)
	}
	if gotCentroids != wantCentroids {
		t.Fatal("final centroids differ from the reference")
	}
	return got
}

// fullPassAccel hides the MinHash accelerator's reverse-collision view
// (its NewReverse no longer satisfies core.ReverseQuerier), so the
// active-set filter stays off and every pass evaluates every item.
// Every other capability is promoted unchanged.
type fullPassAccel struct{ *core.MinHashAccelerator }

func (fullPassAccel) NewReverse() {}

// perItemAccel hands out queriers without CandidatesBlock, so core
// drives them through its per-item adapter.
type perItemAccel struct{ *core.MinHashAccelerator }

func (a perItemAccel) NewQuerier() core.Querier {
	return perItemQuerier{a.MinHashAccelerator.NewQuerier()}
}

type perItemQuerier struct{ q core.Querier }

func (p perItemQuerier) Candidates(item int32, assign []int32) []int32 {
	return p.q.Candidates(item, assign)
}

// countingSeededAccel wraps the MinHash accelerator to observe the
// seeded bootstrap's unindexed queries; embedding forwards every other
// capability (BulkIndexer, Freezer, ReverseQuerier, ShardedIndexer).
type countingSeededAccel struct {
	*core.MinHashAccelerator
	queries  int
	nonEmpty int
}

func (c *countingSeededAccel) CandidatesUnindexed(item int32, assign []int32) []int32 {
	s := c.MinHashAccelerator.CandidatesUnindexed(item, assign)
	c.queries++
	if len(s) > 0 {
		c.nonEmpty++
	}
	return s
}

// TestSeededBootstrapQueriesGrowingIndex pins the repaired seeded
// semantics: non-seed items query the growing index by their own band
// keys, and on a collision-dense workload most of those shortlists are
// non-empty — the exact-scan fallback no longer always runs. Covered
// for both the presigned pipeline and the reference driver's serial
// signing (whose equivalence the bootstrap tests enforce).
func TestSeededBootstrapQueriesGrowingIndex(t *testing.T) {
	ds := bootstrapWorkload(t)
	for _, serial := range []bool{false, true} {
		t.Run(fmt.Sprintf("serialOracle=%v", serial), func(t *testing.T) {
			space, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			inner, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 20, Rows: 2}, 7)
			if err != nil {
				t.Fatal(err)
			}
			accel := &countingSeededAccel{MinHashAccelerator: inner}
			drive := core.Run
			if serial {
				drive = reference.Run
			}
			_, err = drive(space, core.Options{
				Accelerator:   accel,
				Bootstrap:     core.BootstrapSeeded,
				MaxIterations: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := ds.NumItems() - 30; accel.queries != want {
				t.Fatalf("unindexed queries = %d, want one per non-seed item (%d)", accel.queries, want)
			}
			if accel.nonEmpty == 0 {
				t.Fatal("every seeded-bootstrap shortlist was empty: the growing index is not being consulted")
			}
		})
	}
}

// TestImmediateBatchingMatchesPerItem is the equivalence check for
// the move-bounded block pass: immediate-update runs must match the
// reference driver's item-by-item loop in assignments, per-iteration
// moves and costs, and — on full passes — evaluated counts,
// comparisons and shortlist totals, across tie-break modes, with the
// active-set filter on and off (noActive hides the reverse view, so
// every pass is full and every work counter is compared).
func TestImmediateBatchingMatchesPerItem(t *testing.T) {
	ds := bootstrapWorkload(t)
	for _, tb := range []core.TieBreak{core.TieBreakPreferCurrent, core.TieBreakLowestIndex} {
		for _, noActive := range []bool{false, true} {
			t.Run(fmt.Sprintf("tb=%d/noActive=%v", tb, noActive), func(t *testing.T) {
				mk := func() (core.Space, core.Accelerator) {
					space, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
					if err != nil {
						t.Fatal(err)
					}
					accel, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
					if err != nil {
						t.Fatal(err)
					}
					if noActive {
						return space, fullPassAccel{accel}
					}
					return space, accel
				}
				res := assertMatchesReference(t, mk, kmodesFingerprint(t), core.Options{
					Update:        core.UpdateImmediate,
					TieBreak:      tb,
					MaxIterations: 15,
				})
				for i, it := range res.Stats.Iterations {
					if noActive && it.SkippedItems != 0 {
						t.Fatalf("pass %d skipped %d items without a reverse view", i+1, it.SkippedItems)
					}
				}
			})
		}
	}
}

// TestPerItemQuerierMatchesReference drives both pass kinds through
// core's per-item adapter (a querier without CandidatesBlock): the
// immediate pass, whose blocks are cut at moves, and the deferred pass
// inline and across workers.
func TestPerItemQuerierMatchesReference(t *testing.T) {
	ds := bootstrapWorkload(t)
	mk := func() (core.Space, core.Accelerator) {
		space, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		accel, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return space, perItemAccel{accel}
	}
	for _, opts := range []core.Options{
		{Update: core.UpdateImmediate, MaxIterations: 15},
		{Update: core.UpdateDeferred, MaxIterations: 15},
		{Update: core.UpdateDeferred, Workers: 4, Shards: 4, MaxIterations: 15},
	} {
		t.Run(fmt.Sprintf("upd=%d/w=%d", opts.Update, opts.Workers), func(t *testing.T) {
			assertMatchesReference(t, mk, kmodesFingerprint(t), opts)
		})
	}
}
