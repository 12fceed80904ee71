package core

import "testing"

// rankedSpace is a minimal Space whose best cluster for every item is
// k-1 (distance decreases with the cluster index), making "silently
// returns cluster 0" distinguishable from a correct exact fallback.
type rankedSpace struct{ n, k int }

func (s *rankedSpace) NumItems() int    { return s.n }
func (s *rankedSpace) NumClusters() int { return s.k }
func (s *rankedSpace) Dissimilarity(item, cluster int) float64 {
	return float64(s.k - cluster)
}
func (s *rankedSpace) BoundedDissimilarity(item, cluster int, bound float64) float64 {
	return s.Dissimilarity(item, cluster)
}
func (s *rankedSpace) RecomputeCentroids(assign []int32) {}
func (s *rankedSpace) Cost(assign []int32) float64       { return 0 }

// TestBestOfEmptyShortlistFallsBackToExact pins the defensive contract
// of bestOf: with no current cluster and an empty candidate list it
// must run an exact scan instead of electing cluster 0 (under
// prefer-current ties) or returning the -1 sentinel (under
// lowest-index ties). The seeded bootstrap relies on this for items
// that collide with nothing indexed yet; the test drives the driver
// directly so the contract holds independently of any workload.
func TestBestOfEmptyShortlistFallsBackToExact(t *testing.T) {
	space := &rankedSpace{n: 4, k: 5}
	for _, tb := range []TieBreak{TieBreakPreferCurrent, TieBreakLowestIndex} {
		d := &driver{space: space, opts: Options{TieBreak: tb}, n: space.n, k: space.k}
		var comps int64
		got := d.bestOf(2, -1, nil, &comps)
		if got != int32(space.k-1) {
			t.Fatalf("tiebreak %d: bestOf(cur=-1, no candidates) = %d, want exact best %d",
				tb, got, space.k-1)
		}
		if comps == 0 {
			t.Fatalf("tiebreak %d: fallback did not evaluate any distances", tb)
		}
		// The non-empty and cur-supplied paths are unchanged by the
		// fallback: a real candidate list still wins over the scan.
		if got := d.bestOf(2, -1, []int32{1, 3}, nil); got != 3 {
			t.Fatalf("tiebreak %d: bestOf over {1,3} = %d, want 3", tb, got)
		}
		if got := d.bestOf(2, 4, nil, nil); got != 4 {
			t.Fatalf("tiebreak %d: bestOf(cur=4, no candidates) = %d, want 4", tb, got)
		}
	}
}
