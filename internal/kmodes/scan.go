package kmodes

import (
	"math/bits"
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
// every (attribute, value) pair held by at least one mode, the
// ascending list of modes holding it, stored CSR-style in ids. An
// open-addressed table maps the pair to its list.
type postings struct {
	slots []postSlot // power-of-two length, at least twice the distinct pairs
	shift uint       // 64 − log2(len(slots))
	ids   []int32
}

// postSlot is one table entry: the pair's key and its list ids[lo:hi].
// Every list is non-empty, so hi == 0 marks an empty slot.
type postSlot struct {
	key    uint64
	lo, hi int32
}

// postKey packs an (attribute, value) pair into a table key: the same
// value ID under two attributes is two keys.
func postKey(attr int, v dataset.Value) uint64 { return uint64(attr)<<32 | uint64(v) }

// newPostings indexes the k·m mode values of modes (row-major, m per
// mode).
func newPostings(modes []dataset.Value, m int) *postings {
	keys := make([]uint64, len(modes))
	for i, v := range modes {
		keys[i] = postKey(i%m, v)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	logSlots := bits.Len(uint(2*len(keys) - 1))
	p := &postings{
		slots: make([]postSlot, 1<<logSlots),
		shift: uint(64 - logSlots),
		ids:   make([]int32, len(modes)),
	}
	for _, key := range keys {
		*p.slot(key) = postSlot{key: key, hi: 1} // hi: occupied until sized
	}
	// Count each list's modes in lo, then lay the lists out end to end
	// with lo = hi = the list's end, and fill them back to front with
	// the modes in descending order, leaving each list ascending.
	for i, v := range modes {
		p.slot(postKey(i%m, v)).lo++
	}
	end := int32(0)
	for h := range p.slots {
		if s := &p.slots[h]; s.hi != 0 {
			end += s.lo
			s.lo, s.hi = end, end
		}
	}
	for i := len(modes) - 1; i >= 0; i-- {
		s := p.slot(postKey(i%m, modes[i]))
		s.lo--
		p.ids[s.lo] = int32(i / m)
	}
	return p
}

// slot returns key's table entry, or the empty slot where it would go
// (Fibonacci hashing, linear probing).
func (p *postings) slot(key uint64) *postSlot {
	mask := uint64(len(p.slots) - 1)
	for h := (key * 0x9E3779B97F4A7C15) >> p.shift; ; h = (h + 1) & mask {
		if s := &p.slots[h]; s.hi == 0 || s.key == key {
			return s
		}
	}
}

// list returns the modes holding value v on attribute attr, ascending.
func (p *postings) list(attr int, v dataset.Value) []int32 {
	s := p.slot(postKey(attr, v))
	return p.ids[s.lo:s.hi:s.hi]
}

// nearest returns the lowest-indexed mode with the most matches on row
// (mode 0 when nothing matches). counts has one zeroed cell per mode;
// nearest leaves it zeroed.
//
//lshvet:noescape
func (p *postings) nearest(row []dataset.Value, counts []int32) int {
	for a, v := range row {
		for _, c := range p.list(a, v) {
			counts[c]++
		}
	}
	best, bestC := int32(0), int32(0)
	for a, v := range row {
		for _, c := range p.list(a, v) {
			if n := counts[c]; n > best || (n == best && c < bestC) {
				best, bestC = n, c
			}
			counts[c] = 0
		}
	}
	return int(bestC)
}

// BeginExactScan snapshots the current modes into posting lists for
// NearestExact. Call it exclusively; the modes must not change until
// EndExactScan.
func (s *Space) BeginExactScan() { s.post = newPostings(s.modes, s.m) }

// EndExactScan releases the posting lists.
func (s *Space) EndExactScan() { s.post = nil }

// NearestExact returns the lowest-indexed mode at minimum dissimilarity
// from item under the BeginExactScan snapshot. scratch is the calling
// worker's own buffer of NumClusters() zeroed cells and is left zeroed,
// so concurrent calls with distinct scratch are safe.
//
//lshvet:noescape
func (s *Space) NearestExact(item int, scratch []int32) int {
	return s.post.nearest(s.ds.Row(item), scratch)
}
