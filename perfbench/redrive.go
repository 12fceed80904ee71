package main

import (
	"fmt"
	"sync"
	"time"

	"lshcluster"
	"lshcluster/internal/core"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/simhash"
)

// The traced re-drive runs the same clustering as one facade call
// (lshcluster.Cluster / ClusterNumeric): it builds the space and the
// accelerator as the facade does and calls core.Run itself, with each
// wrapped in a type that embeds it and puts a span around the layer
// calls core makes. The embedded values keep every capability core
// looks for, so core takes the same paths as in the untraced call;
// the benchmark checks that the final assignment and every pass's
// counters are the same.

// spaceUnderTest is every capability core.Run looks for on a space.
type spaceUnderTest interface {
	core.IncrementalSpace
	core.ChangeReporter
	core.KernelConfigurable
	core.Seeder
}

// accelUnderTest is every capability core.Run looks for on an
// accelerator, but core.KernelConfigurable, which only SimHash has
// (tracedAccel forwards it).
type accelUnderTest interface {
	core.Accelerator
	core.BulkIndexer
	core.UnindexedQuerier
	core.Freezer
	core.ReverseQuerier
	core.ShardedIndexer
	core.ForeignSlotConfigurer
	core.ReorderConfigurer
	core.ReorderMapper
	core.ResilienceConfigurer
	core.IndexPersister
	core.ShardStatsReporter
}

// querierUnderTest is what the accelerators' queriers provide; core's
// batch passes call CandidatesBlock.
type querierUnderTest interface {
	core.BlockQuerier
	core.DegradedQuerier
}

var (
	_ spaceUnderTest   = (*kmodes.Space)(nil)
	_ spaceUnderTest   = (*kmeans.Space)(nil)
	_ accelUnderTest   = (*core.MinHashAccelerator)(nil)
	_ accelUnderTest   = (*simhash.Accelerator)(nil)
	_ querierUnderTest = (*core.IndexQuerier)(nil)
)

// batchPlan is one batch clustering to re-drive: how the facade builds
// its space and accelerator, and how the spans are labelled.
type batchPlan struct {
	// space and sign label the space's spans ("kmodes"/"kmeans") and the
	// signing span ("lsh"/"simhash").
	space, sign string
	newSpace    func() (spaceUnderTest, error)
	newAccel    func(spaceUnderTest) (accelUnderTest, error)
	opts        core.Options
	// finish is the facade's work after core.Run (model snapshot,
	// purity or centroid copy); it runs inside the solve span.
	finish func(space spaceUnderTest, assign []int32) error
	// sample is the seeded item sample shortlist recall is measured on.
	sample []int
}

// redriveResult is what one traced re-drive produced.
type redriveResult struct {
	assign []int32
	stats  lshcluster.Run
	// scanPairs is the exact first assignment's item-cluster pairs (0
	// when a warm start restored it).
	scanPairs int64
	recall    float64
}

// coreOptions builds the core options lshcluster.Config builds, for
// the fields the benchmark's configs set.
func coreOptions(cfg lshcluster.Config) core.Options {
	opts := core.Options{
		MaxIterations: cfg.MaxIterations,
		Workers:       cfg.Workers,
		Shards:        cfg.Shards,
		IndexDir:      cfg.IndexDir,
	}
	if cfg.DeferredUpdates || cfg.Workers > 1 {
		opts.Update = core.UpdateDeferred
	}
	return opts
}

func redriveBatch(p batchPlan, tr *tracer) (*redriveResult, error) {
	root := tr.begin("solve")
	var inner spaceUnderTest
	var innerAccel accelUnderTest
	var err error
	tr.around(p.space+".new_space", func() { inner, err = p.newSpace() })
	if err != nil {
		return nil, err
	}
	tr.around(p.sign+".new_accel", func() { innerAccel, err = p.newAccel(inner) })
	if err != nil {
		return nil, err
	}
	accel := &tracedAccel{accelUnderTest: innerAccel, tr: tr, sign: p.sign, resetSpan: "lsh.reset"}
	if p.opts.IndexDir != "" {
		accel.resetSpan = "persist.open"
	}
	space := &tracedSpace{spaceUnderTest: inner, tr: tr, layer: p.space, accel: accel}
	opts := p.opts
	opts.Accelerator = accel
	res, err := core.Run(space, opts)
	if err != nil {
		return nil, err
	}
	if accel.untimed != nil {
		return nil, accel.untimed
	}
	st := res.Stats
	out := &redriveResult{assign: res.Assign, stats: st}
	// Core times the first assignment itself: the exact scan on a cold
	// start, the restore of the saved one on a warm start.
	if st.WarmStart {
		tr.fold("persist.assign_restore", st.BootstrapAssign, 1)
	} else {
		tr.fold(p.space+".exact_scan", st.BootstrapAssign, 1)
		out.scanPairs = int64(inner.NumItems()) * int64(inner.NumClusters())
	}
	tr.around(p.space+".finish", func() { err = p.finish(inner, res.Assign) })
	if err != nil {
		return nil, err
	}
	tr.end(root)

	// Outside the solve span: the share of sampled items whose
	// shortlist holds an exact-nearest cluster, on the final state.
	tr.around("lsh.recall", func() {
		view := res.Assign
		if perm, _ := innerAccel.ReorderMap(); perm != nil {
			view = make([]int32, len(res.Assign))
			for i, c := range res.Assign {
				view[perm[i]] = c
			}
		}
		out.recall = shortlistRecall(inner, innerAccel.NewQuerier(), view, res.Assign, p.sample)
	})
	return out, nil
}

// tracedSpace times the space calls core makes outside the parallel
// pass regions.
type tracedSpace struct {
	spaceUnderTest
	tr    *tracer
	layer string
	accel *tracedAccel
}

func (s *tracedSpace) BeginIncremental(assign []int32, trackCost bool) {
	s.tr.around(s.layer+".engine_init", func() { s.spaceUnderTest.BeginIncremental(assign, trackCost) })
}

// ApplyMove is called once per move, after the pass's workers joined.
func (s *tracedSpace) ApplyMove(item int, from, to int32) {
	start := time.Now()
	s.spaceUnderTest.ApplyMove(item, from, to)
	s.tr.fold(s.layer+".apply_move", time.Since(start), 1)
}

// FinishPass ends a pass: the workers' query and distance times are
// folded first, then the centroid publish is timed.
func (s *tracedSpace) FinishPass(assign []int32) {
	s.accel.foldQueries(s.layer)
	s.tr.around(s.layer+".finish_pass", func() { s.spaceUnderTest.FinishPass(assign) })
}

func (s *tracedSpace) IncrementalCost(assign []int32) float64 {
	var cost float64
	s.tr.around(s.layer+".cost", func() { cost = s.spaceUnderTest.IncrementalCost(assign) })
	return cost
}

// tracedAccel times the accelerator calls core makes and hands out
// queriers that time themselves.
type tracedAccel struct {
	accelUnderTest
	tr              *tracer
	sign, resetSpan string
	// untimed is set when a querier lacked the block capability, so its
	// time could not be attributed.
	untimed error

	mu       sync.Mutex
	queriers []*tracedQuerier
}

func (a *tracedAccel) Reset(numClusters int) error {
	var err error
	a.tr.around(a.resetSpan, func() { err = a.accelUnderTest.Reset(numClusters) })
	return err
}

func (a *tracedAccel) SignAll(workers int, stop func() bool) error {
	var err error
	a.tr.around(a.sign+".sign", func() { err = a.accelUnderTest.SignAll(workers, stop) })
	return err
}

func (a *tracedAccel) BuildFrozen(workers int) error {
	var err error
	a.tr.around("lsh.build", func() { err = a.accelUnderTest.BuildFrozen(workers) })
	return err
}

func (a *tracedAccel) Freeze() { a.tr.around("lsh.freeze", a.accelUnderTest.Freeze) }

// SetScalarKernels forwards core.KernelConfigurable where the
// accelerator has it; elsewhere core's call does nothing, as its
// skipped capability check would.
func (a *tracedAccel) SetScalarKernels(scalar bool) {
	if kc, ok := a.accelUnderTest.(core.KernelConfigurable); ok {
		kc.SetScalarKernels(scalar)
	}
}

func (a *tracedAccel) NewReverse() core.ReverseView {
	rv := a.accelUnderTest.NewReverse()
	if rv == nil {
		return nil
	}
	return &tracedReverse{ReverseView: rv, tr: a.tr}
}

// NewQuerier is called on core's pass workers, concurrently.
func (a *tracedAccel) NewQuerier() core.Querier {
	q := a.accelUnderTest.NewQuerier()
	bq, ok := q.(querierUnderTest)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !ok {
		a.untimed = fmt.Errorf("querier %T has no CandidatesBlock; its time is not attributed", q)
		return q
	}
	tq := &tracedQuerier{querierUnderTest: bq}
	a.queriers = append(a.queriers, tq)
	return tq
}

// foldQueries splits the wall time of the pass's parallel region (the
// first CandidatesBlock call's start to the last one's end) between
// lsh.query and <layer>.distance by their shares of the time the
// workers spent in CandidatesBlock, and forgets the pass's queriers.
// It runs on core's goroutine after the workers joined.
func (a *tracedAccel) foldQueries(layer string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var first, last time.Time
	var block, emit time.Duration
	var items int64
	for _, q := range a.queriers {
		if q.items == 0 {
			continue
		}
		if first.IsZero() || q.first.Before(first) {
			first = q.first
		}
		if q.last.After(last) {
			last = q.last
		}
		block += q.block
		emit += q.emit
		items += q.items
	}
	a.queriers = a.queriers[:0]
	if block <= 0 {
		return
	}
	region := last.Sub(first)
	share := func(d time.Duration) time.Duration {
		return time.Duration(float64(region) * float64(d) / float64(block))
	}
	a.tr.fold("lsh.query", share(block-emit), items)
	a.tr.fold(layer+".distance", share(emit), items)
}

// tracedQuerier times core's CandidatesBlock calls and, inside them,
// the emit callbacks, where core evaluates distances. One worker owns
// it; foldQueries reads it after the workers joined.
type tracedQuerier struct {
	querierUnderTest
	first, last time.Time
	block, emit time.Duration
	items       int64
}

func (q *tracedQuerier) CandidatesBlock(items, assign []int32, emit func(pos int, shortlist []int32)) {
	start := time.Now()
	if q.first.IsZero() {
		q.first = start
	}
	var inEmit time.Duration
	q.querierUnderTest.CandidatesBlock(items, assign, func(pos int, shortlist []int32) {
		t := time.Now()
		emit(pos, shortlist)
		inEmit += time.Since(t)
	})
	q.last = time.Now()
	q.block += q.last.Sub(start)
	q.emit += inEmit
	q.items += int64(len(items))
}

// tracedReverse times the active-set expansion: the AddSource calls
// and the Emit that follows them, as one lsh.reverse call.
type tracedReverse struct {
	core.ReverseView
	tr      *tracer
	pending time.Duration
	sources int64
}

func (r *tracedReverse) AddSource(item int32) {
	start := time.Now()
	r.ReverseView.AddSource(item)
	r.pending += time.Since(start)
	r.sources++
}

func (r *tracedReverse) Emit(fn func(item int32) bool) {
	start := time.Now()
	r.ReverseView.Emit(fn)
	r.tr.fold("lsh.reverse", r.pending+time.Since(start), r.sources)
	r.pending, r.sources = 0, 0
}

// Degraded forwards core.DegradedReverse when the view has it.
func (r *tracedReverse) Degraded() bool {
	d, ok := r.ReverseView.(core.DegradedReverse)
	return ok && d.Degraded()
}

// nearest returns the lowest-indexed cluster at minimum dissimilarity
// to item.
func nearest(space core.Space, item int) int {
	best, bestD := 0, space.Dissimilarity(item, 0)
	for c, k := 1, space.NumClusters(); c < k; c++ {
		if d := space.Dissimilarity(item, c); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// shortlistRecall returns the share of sample items whose shortlist
// (plus their current cluster) contains a cluster at the exact-nearest
// distance — the quality the LSH gave up, per item.
func shortlistRecall(space core.Space, q core.Querier, view, assign []int32, sample []int) float64 {
	if len(sample) == 0 {
		return 0
	}
	hit := 0
	for _, i := range sample {
		bestD := space.Dissimilarity(i, nearest(space, i))
		found := space.Dissimilarity(i, int(assign[i])) == bestD
		for _, c := range q.Candidates(int32(i), view) {
			if found {
				break
			}
			found = space.Dissimilarity(i, int(c)) == bestD
		}
		if found {
			hit++
		}
	}
	return float64(hit) / float64(len(sample))
}

// checkPasses compares a traced re-drive's passes with the untraced
// call's: the same moves, evaluated items and cost.
func checkPasses(traced, its []lshcluster.Iteration) error {
	if len(traced) != len(its) {
		return fmt.Errorf("traced re-drive ran %d passes, the facade call %d", len(traced), len(its))
	}
	for i, p := range traced {
		it := its[i]
		if p.Moves != it.Moves || p.ActiveItems != it.ActiveItems || p.Cost != it.Cost {
			return fmt.Errorf("pass %d: traced re-drive moved %d of %d evaluated items at cost %v, the facade call %d of %d at cost %v",
				i+1, p.Moves, p.ActiveItems, p.Cost, it.Moves, it.ActiveItems, it.Cost)
		}
	}
	return nil
}
