package kmodes

import (
	"slices"

	"lshcluster/internal/dataset"
)

// Exact nearest-mode scan over value→mode posting lists
// (core.ExactScanner).
//
// An item's dissimilarity to a mode is m − matches, where matches counts
// the attributes on which the two agree. The scan therefore looks up,
// for each of the item's m values, the modes holding that value on that
// attribute, adds one match to each, and returns the lowest-indexed mode
// with the most matches — mode 0 when no mode matches anything, since
// then every mode is at distance m. That is exactly the lowest-indexed
// minimum an ascending Dissimilarity scan over all k modes returns, but
// it touches only the modes sharing a value with the item instead of
// all k of them. The answer is a count, not a kernel evaluation, so
// SetScalarKernels does not apply to it.

// postings is the read-only value→mode index behind NearestExact: for
// every value code (pairs.go), the ascending list of modes holding that
// (attribute, value) pair, stored CSR-style in ids. A mode pair no item
// holds has no code and no list: no item could match it.
type postings struct {
	off []int32 // code c's list is ids[off[c]:off[c+1]]
	ids []int32
}

// newPostings indexes the k·m mode values of modes (row-major, m per
// mode) by value code; keys is the Space's code→key array, ascending.
func newPostings(modes []dataset.Value, m int, keys []uint64) *postings {
	codes := make([]int32, len(modes))
	for i, v := range modes {
		c, ok := slices.BinarySearch(keys, pairKey(i%m, v))
		if !ok {
			c = -1
		}
		codes[i] = int32(c)
	}
	// Count each list's modes in off[code+1], lay the lists out end to
	// end, and fill each in ascending mode order with off[code] as its
	// cursor; that leaves off[code] at the list's end, so shift off up
	// by one.
	p := &postings{off: make([]int32, len(keys)+1), ids: make([]int32, len(modes))}
	for _, c := range codes {
		if c >= 0 {
			p.off[c+1]++
		}
	}
	for c := 1; c < len(p.off); c++ {
		p.off[c] += p.off[c-1]
	}
	for i, c := range codes {
		if c >= 0 {
			p.ids[p.off[c]] = int32(i / m)
			p.off[c]++
		}
	}
	copy(p.off[1:], p.off)
	p.off[0] = 0
	return p
}

// nearest returns the lowest-indexed mode with the most matches on the
// item whose value codes are codes (mode 0 when nothing matches).
// counts has one zeroed cell per mode; nearest leaves it zeroed.
//
//lshvet:noescape
func (p *postings) nearest(codes []int32, counts []int32) int {
	for _, code := range codes {
		for _, c := range p.ids[p.off[code]:p.off[code+1]] {
			counts[c]++
		}
	}
	best, bestC := int32(0), int32(0)
	for _, code := range codes {
		for _, c := range p.ids[p.off[code]:p.off[code+1]] {
			if n := counts[c]; n > best || (n == best && c < bestC) {
				best, bestC = n, c
			}
			counts[c] = 0
		}
	}
	return int(bestC)
}

// BeginExactScan snapshots the current modes into posting lists for
// NearestExact, numbering the dataset's value codes on first use. Call
// it exclusively; the modes must not change until EndExactScan.
func (s *Space) BeginExactScan() {
	s.numberValues()
	s.post = newPostings(s.modes, s.m, s.codeKeys)
}

// EndExactScan releases the posting lists.
func (s *Space) EndExactScan() { s.post = nil }

// NearestExact returns the lowest-indexed mode at minimum dissimilarity
// from item under the BeginExactScan snapshot. scratch is the calling
// worker's own buffer of NumClusters() zeroed cells and is left zeroed,
// so concurrent calls with distinct scratch are safe.
//
//lshvet:noescape
func (s *Space) NearestExact(item int, scratch []int32) int {
	return s.post.nearest(s.codes[item*s.m:(item+1)*s.m], scratch)
}
