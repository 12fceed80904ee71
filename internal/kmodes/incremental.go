package kmodes

import (
	"slices"

	"lshcluster/internal/dataset"
)

// This file implements core.IncrementalSpace for the K-Modes space:
// Huang's frequency-based mode update (paper §III-A1) by recounting. A
// move only adjusts two cluster sizes, marks both clusters dirty and
// refreshes the item's cached cost; FinishPass then recounts each dirty
// cluster's mode from its members. Every item's values are numbered
// once per Space by (attribute, value) pair (pairs.go), so a recount is
// a flat int32 count per code with no Go map. A pass costs O(moves) for
// the moves plus O(n + Σ dirty-cluster members·m) to publish, instead
// of the O(n·m) full RecomputeCentroids + O(n·m) full Cost the batch
// path pays.
//
// Exactness contract: the published modes and the incremental cost are
// bit-identical to RecomputeCentroids/Cost on the same assignment — the
// recount takes the same argmax (highest count, ties to the smallest
// value ID), all objective arithmetic is integral, and the empty-cluster
// policy is replayed with the same rand draws in the same cluster order
// as the batch path. The equivalence tests in internal/core assert this
// across tie-break modes, update modes and worker counts.

// incremental is the engine state attached to a Space.
type incremental struct {
	sizes     []int32 // member count per cluster under the applied moves
	dirty     []bool  // clusters whose membership changed this pass
	dirtyList []int32 // the same clusters, in first-touched order
	// changedList records the clusters whose visible mode changed at
	// the most recent publish (BeginIncremental or FinishPass),
	// retained until the next publish for ChangedClusters.
	changedList []int32
	trackCost   bool
	itemCost    []int32 // cached Mismatches(row(i), mode(assign[i]))
	total       int64   // Σ itemCost, maintained exactly in integers

	// Recount scratch, reused by every publish.
	cursor  []int32         // per cluster: bucket write position, −1 if not recounted
	members []int32         // the recounted clusters' members, bucketed
	counts  []int32         // one cell per code, zero between recounts
	mode    []dataset.Value // the recounted mode
}

// newIncremental sizes the engine's buffers, which last for the
// Space's lifetime.
func (s *Space) newIncremental() *incremental {
	s.numberValues()
	inc := &incremental{
		sizes:       make([]int32, s.k),
		dirty:       make([]bool, s.k),
		dirtyList:   make([]int32, 0, s.k),
		changedList: make([]int32, 0, s.k),
		cursor:      make([]int32, s.k),
		members:     make([]int32, s.NumItems()),
		counts:      make([]int32, len(s.codeKeys)),
		mode:        make([]dataset.Value, s.m),
	}
	for c := range inc.cursor {
		inc.cursor[c] = -1
	}
	return inc
}

// BeginIncremental recounts every cluster's mode from a complete
// assignment and publishes it — the incremental equivalent of the first
// RecomputeCentroids(assign) call, including the empty-cluster policy
// (with identical rand draws). trackCost=false skips objective
// bookkeeping; IncrementalCost then falls back to a full Cost scan.
func (s *Space) BeginIncremental(assign []int32, trackCost bool) {
	n := s.NumItems()
	if len(assign) != n {
		panic("kmodes: assignment length mismatch")
	}
	if s.inc == nil {
		s.inc = s.newIncremental()
	}
	inc := s.inc
	clear(inc.sizes)
	for _, c := range assign {
		inc.sizes[c]++
	}
	inc.dirtyList = inc.dirtyList[:0]
	for c := 0; c < s.k; c++ {
		inc.dirty[c] = true
		inc.dirtyList = append(inc.dirtyList, int32(c))
	}
	inc.trackCost = false // no cached costs to refresh yet
	s.publish(assign)
	// Every mode was just (re)published from scratch; report them all
	// changed so a consumer never treats pre-Begin state as current.
	inc.changedList = inc.changedList[:0]
	for c := 0; c < s.k; c++ {
		inc.changedList = append(inc.changedList, int32(c))
	}
	inc.trackCost = trackCost
	if trackCost {
		if cap(inc.itemCost) < n {
			inc.itemCost = make([]int32, n)
		}
		inc.itemCost = inc.itemCost[:n]
		inc.total = 0
		for i, c := range assign {
			d := int32(s.mismatches(s.ds.Row(i), s.mode(int(c))))
			inc.itemCost[i] = d
			inc.total += int64(d)
		}
	}
}

// ApplyMove records one item's move. The visible modes are untouched
// until FinishPass, so moves applied during a pass cannot perturb later
// assignment decisions in that pass.
//
//lshvet:noescape
func (s *Space) ApplyMove(item int, from, to int32) {
	inc := s.inc
	inc.sizes[from]--
	inc.sizes[to]++
	inc.markDirty(from)
	inc.markDirty(to)
	if inc.trackCost {
		// Cost against the pass-frozen mode of the new cluster; if that
		// mode changes at FinishPass the recount refreshes it.
		d := int32(s.mismatches(s.ds.Row(item), s.mode(int(to))))
		inc.total += int64(d - inc.itemCost[item])
		inc.itemCost[item] = d
	}
}

func (inc *incremental) markDirty(c int32) {
	if !inc.dirty[c] {
		inc.dirty[c] = true
		inc.dirtyList = append(inc.dirtyList, c)
	}
}

// FinishPass publishes the modes of every cluster whose membership
// changed since the last pass — the incremental equivalent of
// RecomputeCentroids(assign).
func (s *Space) FinishPass(assign []int32) { s.publish(assign) }

// publish applies the empty-cluster policy, recounts every dirty
// non-empty cluster's mode from its members under assign, publishes
// the modes that changed (refreshing their members' cached costs) and
// clears the dirty set. A dirty cluster that emptied keeps its visible
// mode under KeepMode, as the batch path does.
func (s *Space) publish(assign []int32) {
	inc := s.inc
	inc.changedList = inc.changedList[:0]
	if s.policy == ReseedRandomItem {
		// The batch path redraws a random item for every empty cluster
		// on every recompute, dirty or not; replay that draw-for-draw.
		for c := 0; c < s.k; c++ {
			if inc.sizes[c] == 0 {
				copy(s.mode(c), s.ds.Row(s.rng.Intn(s.NumItems())))
				inc.changedList = append(inc.changedList, int32(c))
			}
		}
	}
	// Bucket the dirty clusters' members, in dirty-list order, with one
	// scatter pass over assign: the sizes give every bucket's extent.
	end := int32(0)
	for _, c := range inc.dirtyList {
		inc.cursor[c] = end
		end += inc.sizes[c]
	}
	for i, c := range assign {
		if p := inc.cursor[c]; p >= 0 {
			inc.members[p] = int32(i)
			inc.cursor[c] = p + 1
		}
	}
	for _, c := range inc.dirtyList {
		hi := inc.cursor[c]
		members := inc.members[hi-inc.sizes[c] : hi]
		inc.cursor[c] = -1
		inc.dirty[c] = false
		if len(members) == 0 {
			continue
		}
		s.recount(members)
		mode := s.mode(int(c))
		if slices.Equal(inc.mode, mode) {
			continue
		}
		copy(mode, inc.mode)
		inc.changedList = append(inc.changedList, c)
		if inc.trackCost {
			for _, i := range members {
				d := int32(s.mismatches(s.ds.Row(int(i)), mode))
				inc.total += int64(d - inc.itemCost[i])
				inc.itemCost[i] = d
			}
		}
	}
	inc.dirtyList = inc.dirtyList[:0]
}

// recount writes into s.inc.mode the per-attribute most frequent value
// among members, ties to the smallest value ID — RecomputeCentroids'
// rule. Within an attribute codes order like values, so the tie-break
// compares codes. Per attribute, the first sweep counts the members'
// codes; the second reads each code's total at its first occurrence
// and zeroes it, which leaves counts zeroed and makes later occurrences
// read 0, below any total.
//
//lshvet:noescape
func (s *Space) recount(members []int32) {
	m, codes, keys, counts, mode := s.m, s.codes, s.codeKeys, s.inc.counts, s.inc.mode
	for a := range mode {
		for _, i := range members {
			counts[codes[int(i)*m+a]]++
		}
		best, bestCode := int32(0), int32(0)
		for _, i := range members {
			c := codes[int(i)*m+a]
			if n := counts[c]; n > best || (n == best && c < bestCode) {
				best, bestCode = n, c
			}
			counts[c] = 0
		}
		mode[a] = dataset.Value(keys[bestCode])
	}
}

// ChangedClusters returns the clusters whose visible mode changed
// during the most recent publish (BeginIncremental or FinishPass):
// every reseeded empty cluster — each redraw counts as a change, even
// when the same row is redrawn — plus every dirty cluster whose
// recounted mode actually differs from the published one. Valid until
// the next publish; the slice is reused. This is the
// core.ChangeReporter capability the driver's active-set filter
// consumes: items whose shortlist cannot reach any of these clusters
// (and did not lose or gain a colliding neighbour) provably keep their
// assignment and are skipped.
func (s *Space) ChangedClusters() []int32 {
	if s.inc == nil {
		return nil
	}
	return s.inc.changedList
}

// IncrementalCost returns the K-Modes objective under assign. With cost
// tracking enabled this is O(1): the total is maintained exactly in
// integer arithmetic, so it is bit-identical to Cost(assign).
func (s *Space) IncrementalCost(assign []int32) float64 {
	if s.inc == nil || !s.inc.trackCost {
		return s.Cost(assign)
	}
	return float64(s.inc.total)
}
