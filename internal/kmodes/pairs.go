package kmodes

import (
	"cmp"
	"slices"

	"lshcluster/internal/dataset"
)

// Value codes. Every (attribute, value) pair the dataset holds gets a
// dense int32 code, in ascending (attribute, value) order: attribute
// a's codes form one contiguous range, and within it codes compare like
// the value IDs they stand for. The same value ID under two attributes
// is two pairs and two codes. The exact scan indexes its posting lists
// by code (scan.go), and the incremental engine counts codes to recount
// modes (incremental.go), so neither hashes a value in its hot loop.

// pairKey packs an (attribute, value) pair into one key; keys order
// like their pairs.
func pairKey(attr int, v dataset.Value) uint64 { return uint64(attr)<<32 | uint64(v) }

// pairCodes numbers distinct keys densely — 0, 1, 2, … in
// first-insertion order — through an open-addressed table (Fibonacci
// hashing, linear probing) with no Go map.
type pairCodes struct {
	slots []pairSlot // power-of-two length, at least twice n
	shift uint       // 64 − log2(len(slots))
	n     int32      // keys numbered so far
}

// pairSlot is one table entry. Codes are stored plus one, so that the
// zero value marks an empty slot.
type pairSlot struct {
	key  uint64
	code int32
}

// resize replaces the table with one of at least size slots (a power
// of two) holding the same keys under the same codes.
func (t *pairCodes) resize(size int) {
	logSlots := 1
	for 1<<logSlots < size {
		logSlots++
	}
	old := t.slots
	t.slots = make([]pairSlot, 1<<logSlots)
	t.shift = uint(64 - logSlots)
	for _, s := range old {
		if s.code != 0 {
			*t.slot(s.key) = s
		}
	}
}

// slot returns key's entry, or the empty slot where it would go.
func (t *pairCodes) slot(key uint64) *pairSlot {
	mask := uint64(len(t.slots) - 1)
	for h := (key * 0x9E3779B97F4A7C15) >> t.shift; ; h = (h + 1) & mask {
		if s := &t.slots[h]; s.code == 0 || s.key == key {
			return s
		}
	}
}

// code returns key's code, numbering the key if it is new.
func (t *pairCodes) code(key uint64) int32 {
	s := t.slot(key)
	if s.code == 0 {
		if 2*int(t.n+1) > len(t.slots) {
			t.resize(2 * len(t.slots))
			s = t.slot(key)
		}
		t.n++
		*s = pairSlot{key: key, code: t.n}
	}
	return s.code - 1
}

// numberValues sets s.codes, the code of every dataset value
// (codes[i·m+a] for row i, attribute a), and s.codeKeys, the key of
// every code, unless they are set already; both last for the Space's
// lifetime.
func (s *Space) numberValues() {
	if s.codes != nil {
		return
	}
	values := s.ds.Values()
	t := &pairCodes{}
	t.resize(4096)
	codes := make([]int32, len(values))
	var keys []uint64
	for i := 0; i < len(values); i += s.m {
		for a, v := range values[i : i+s.m] {
			key := pairKey(a, v)
			c := t.code(key)
			if int(c) == len(keys) {
				keys = append(keys, key)
			}
			codes[i+a] = c
		}
	}
	// Renumber first-insertion codes by key rank.
	order := make([]int32, len(keys))
	for c := range order {
		order[c] = int32(c)
	}
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(keys[x], keys[y]) })
	rank := make([]int32, len(keys))
	for r, c := range order {
		rank[c] = int32(r)
	}
	for j, c := range codes {
		codes[j] = rank[c]
	}
	slices.Sort(keys)
	s.codes, s.codeKeys = codes, keys
}
