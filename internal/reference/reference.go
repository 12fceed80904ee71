// Package reference is the plain clustering driver that every
// optimisation in internal/core is checked against. Run implements the
// paper's algorithm (McConville et al., Algorithm 2) in the most
// direct form the core interfaces allow, and nothing else:
//
//   - serial: one goroutine, items in ascending order;
//   - bootstrap by per-item Accelerator.Insert, then Freeze — no
//     presigning, no direct-to-frozen build, no persistence;
//   - one shard, built in original item order (SetReorder(true)), with
//     the scalar kernels;
//   - per-item Querier.Candidates, never CandidatesBlock;
//   - RecomputeCentroids and Cost every pass, never the incremental
//     engine;
//   - full passes: every item is evaluated every pass.
//
// Core's production driver must reproduce Run bit for bit — final
// assignment, per-pass moves, cost and convergence, and on every pass
// it runs in full also the evaluated items, comparisons and shortlist
// totals (Diff checks exactly that). Only tests import this package;
// oraclecheck reports any other import.
package reference

import (
	"fmt"
	"math"

	"lshcluster/internal/core"
	"lshcluster/internal/runstats"
)

// Run clusters space under the options that define a result:
// Accelerator, MaxIterations, Bootstrap, Update, TieBreak, SkipCost and
// SeedItems. Every other option — workers, shards, kernels, early
// abandoning, persistence, fault injection — is a way of computing the
// same result faster and is ignored.
func Run(space core.Space, opts core.Options) (*core.Result, error) {
	n, k := space.NumItems(), space.NumClusters()
	if n == 0 || k == 0 {
		return nil, fmt.Errorf("reference: empty space (n=%d, k=%d)", n, k)
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = core.DefaultMaxIterations
	}
	if kc, ok := space.(core.KernelConfigurable); ok {
		kc.SetScalarKernels(true)
	}
	r := &run{space: space, tb: opts.TieBreak, k: k}
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	var q core.Querier
	if accel := opts.Accelerator; accel != nil {
		var err error
		if q, err = r.bootstrap(accel, opts, assign); err != nil {
			return nil, err
		}
	} else {
		for i := range assign {
			assign[i], _ = r.best(i, -1, r.all())
		}
	}
	space.RecomputeCentroids(assign)

	res := &core.Result{Assign: assign}
	res.Stats.ResumedAt = 1
	res.Stats.Purity = math.NaN()
	snapshot := make([]int32, n)
	for iter := 1; iter <= maxIter; iter++ {
		view := assign
		if opts.Update == core.UpdateDeferred {
			copy(snapshot, assign)
			view = snapshot
		}
		it := runstats.Iteration{Index: iter, ActiveItems: n, Cost: math.NaN()}
		for i := 0; i < n; i++ {
			shortlist := r.all()
			if q != nil {
				shortlist = q.Candidates(int32(i), view)
			}
			best, comps := r.best(i, int(assign[i]), shortlist)
			it.Comparisons += comps
			it.CandidatesTotal += int64(len(shortlist))
			if best != assign[i] {
				assign[i] = best
				it.Moves++
			}
		}
		it.AvgShortlist = float64(it.CandidatesTotal) / float64(n)
		space.RecomputeCentroids(assign)
		if !opts.SkipCost {
			it.Cost = space.Cost(assign)
		}
		res.Stats.Iterations = append(res.Stats.Iterations, it)
		if it.Moves == 0 {
			res.Stats.Converged = true
			break
		}
	}
	return res, nil
}

// run carries what the decision rule needs.
type run struct {
	space core.Space
	tb    core.TieBreak
	k     int
	allK  []int32
}

// all returns the exact algorithm's shortlist: every cluster, ascending.
func (r *run) all() []int32 {
	if r.allK == nil {
		r.allK = make([]int32, r.k)
		for c := range r.allK {
			r.allK[c] = int32(c)
		}
	}
	return r.allK
}

// best returns the cluster item belongs in — the nearest of its
// current cluster cur (when ≥ 0) and the shortlist — and the number of
// distances it computed. The current cluster is considered first; a
// later cluster wins only by being strictly nearer, except that under
// TieBreakLowestIndex an equally near cluster with a lower index wins
// too.
func (r *run) best(item, cur int, shortlist []int32) (int32, int64) {
	bestC, bestD := int32(-1), math.Inf(1)
	var comps int64
	consider := func(c int32) {
		d := r.space.Dissimilarity(item, int(c))
		comps++
		lower := r.tb == core.TieBreakLowestIndex && d == bestD && c < bestC
		if bestC < 0 || d < bestD || lower {
			bestC, bestD = c, d
		}
	}
	if cur >= 0 {
		consider(int32(cur))
	}
	for _, c := range shortlist {
		if int(c) != cur {
			consider(c)
		}
	}
	return bestC, comps
}

// bootstrap configures accel for the plain path, indexes every item by
// Insert and produces the first assignment: an exact scan followed by
// the inserts (BootstrapFullScan), or the seeded query-before-insert
// interleave (BootstrapSeeded). It returns the querier the passes use.
func (r *run) bootstrap(accel core.Accelerator, opts core.Options, assign []int32) (core.Querier, error) {
	if si, ok := accel.(core.ShardedIndexer); ok {
		si.SetShards(1)
	}
	if ro, ok := accel.(core.ReorderConfigurer); ok {
		ro.SetReorder(true)
	}
	if kc, ok := accel.(core.KernelConfigurable); ok {
		kc.SetScalarKernels(true)
	}
	if rc, ok := accel.(core.ResilienceConfigurer); ok {
		rc.SetResilience(core.ResilienceConfig{})
	}
	if ip, ok := accel.(core.IndexPersister); ok {
		ip.SetPersist(core.PersistConfig{})
	}
	if err := accel.Reset(r.k); err != nil {
		return nil, fmt.Errorf("reference: resetting accelerator: %w", err)
	}
	n := len(assign)
	switch opts.Bootstrap {
	case core.BootstrapFullScan:
		for i := 0; i < n; i++ {
			assign[i], _ = r.best(i, -1, r.all())
		}
		for i := 0; i < n; i++ {
			if err := accel.Insert(int32(i)); err != nil {
				return nil, fmt.Errorf("reference: indexing item %d: %w", i, err)
			}
		}
	case core.BootstrapSeeded:
		seeds := opts.SeedItems
		if seeds == nil {
			s, ok := r.space.(core.Seeder)
			if !ok {
				return nil, fmt.Errorf("reference: BootstrapSeeded requires SeedItems or a Seeder space")
			}
			seeds = s.Seeds()
		}
		if len(seeds) != r.k {
			return nil, fmt.Errorf("reference: %d seed items for %d clusters", len(seeds), r.k)
		}
		isSeed := make([]bool, n)
		for c, item := range seeds {
			if item < 0 || int(item) >= n {
				return nil, fmt.Errorf("reference: seed item %d out of range", item)
			}
			assign[item] = int32(c)
			isSeed[item] = true
			if err := accel.Insert(item); err != nil {
				return nil, fmt.Errorf("reference: indexing seed %d: %w", item, err)
			}
		}
		// Without UnindexedQuerier every shortlist is empty.
		uq, _ := accel.(core.UnindexedQuerier)
		for i := 0; i < n; i++ {
			if isSeed[i] {
				continue
			}
			var shortlist []int32
			if uq != nil {
				shortlist = uq.CandidatesUnindexed(int32(i), assign)
			}
			if len(shortlist) == 0 {
				shortlist = r.all()
			}
			assign[i], _ = r.best(i, -1, shortlist)
			if err := accel.Insert(int32(i)); err != nil {
				return nil, fmt.Errorf("reference: indexing item %d: %w", i, err)
			}
		}
	default:
		return nil, fmt.Errorf("reference: unknown bootstrap mode %d", opts.Bootstrap)
	}
	if f, ok := accel.(core.Freezer); ok {
		f.Freeze()
	}
	return accel.NewQuerier(), nil
}

// Diff returns nil when got — a production core.Run result — matches
// want, a Run result for the same space and options, and otherwise
// describes the first difference. It compares the final assignment,
// convergence and, per pass, moves and cost (bit for bit; skipped when
// both are NaN, as under SkipCost). A production pass may skip items
// the active-set filter proved unchanged, so evaluated items,
// comparisons and shortlist totals are compared on the passes got ran
// in full; on the others only active + skipped = n is checked.
func Diff(got, want *core.Result) error {
	if len(got.Assign) != len(want.Assign) {
		return fmt.Errorf("%d items, reference %d", len(got.Assign), len(want.Assign))
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			return fmt.Errorf("assign[%d] = %d, reference %d", i, got.Assign[i], want.Assign[i])
		}
	}
	if got.Stats.Converged != want.Stats.Converged {
		return fmt.Errorf("converged %v, reference %v", got.Stats.Converged, want.Stats.Converged)
	}
	gi, wi := got.Stats.Iterations, want.Stats.Iterations
	if len(gi) != len(wi) {
		return fmt.Errorf("%d iterations, reference %d", len(gi), len(wi))
	}
	n := len(want.Assign)
	for p := range wi {
		g, w := gi[p], wi[p]
		if g.Moves != w.Moves {
			return fmt.Errorf("pass %d: %d moves, reference %d", p+1, g.Moves, w.Moves)
		}
		if g.Cost != w.Cost && !(math.IsNaN(g.Cost) && math.IsNaN(w.Cost)) {
			return fmt.Errorf("pass %d: cost %v, reference %v", p+1, g.Cost, w.Cost)
		}
		if g.ActiveItems+g.SkippedItems != n {
			return fmt.Errorf("pass %d: %d active + %d skipped items, want %d", p+1, g.ActiveItems, g.SkippedItems, n)
		}
		if g.SkippedItems > 0 {
			continue
		}
		if g.ActiveItems != w.ActiveItems || g.Comparisons != w.Comparisons || g.CandidatesTotal != w.CandidatesTotal {
			return fmt.Errorf("pass %d work: %d evaluated, %d comparisons, %d candidates; reference %d, %d, %d",
				p+1, g.ActiveItems, g.Comparisons, g.CandidatesTotal, w.ActiveItems, w.Comparisons, w.CandidatesTotal)
		}
	}
	return nil
}

// PerfectRecall is an Accelerator whose shortlist is always every
// cluster: with it, the accelerated drivers must reproduce the exact
// algorithm. It has only the minimal Accelerator surface — its
// querier answers per item, with no CandidatesBlock — so it also
// exercises core's per-item querier adapter.
type PerfectRecall struct{ all []int32 }

// Reset prepares the all-cluster shortlist.
func (a *PerfectRecall) Reset(k int) error {
	a.all = make([]int32, k)
	for c := range a.all {
		a.all[c] = int32(c)
	}
	return nil
}

// Insert indexes nothing: every item collides with every cluster.
func (a *PerfectRecall) Insert(int32) error { return nil }

// NewQuerier returns a querier answering every cluster for every item.
func (a *PerfectRecall) NewQuerier() core.Querier { return allQuerier(a.all) }

type allQuerier []int32

func (q allQuerier) Candidates(int32, []int32) []int32 { return q }
