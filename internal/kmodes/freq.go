package kmodes

import "lshcluster/internal/dataset"

// FreqTable maintains per-cluster per-attribute value frequencies and
// the induced modes *incrementally* — Huang's "frequency based updating
// of modes" (paper §III-A1) — so that adding an item to a cluster
// updates its mode in O(m) amortised instead of recomputing from
// members. It is the streaming clusterer's table (internal/stream),
// which folds in arriving items; the batch Space's incremental engine
// recounts dirty clusters instead (incremental.go).
//
// The maintained mode matches Space.RecomputeCentroids exactly: per
// attribute, the most frequent value among members, ties to the smallest
// value ID. An empty cluster keeps its last mode (the KeepMode policy).
type FreqTable struct {
	k, m   int
	counts []map[dataset.Value]int32 // k·m maps, indexed c·m+a
	modes  []dataset.Value           // k·m current argmax values
	sizes  []int32
}

// NewFreqTable creates an empty table for k clusters over m attributes.
func NewFreqTable(k, m int) *FreqTable {
	t := &FreqTable{
		k:      k,
		m:      m,
		counts: make([]map[dataset.Value]int32, k*m),
		modes:  make([]dataset.Value, k*m),
		sizes:  make([]int32, k),
	}
	for i := range t.counts {
		t.counts[i] = make(map[dataset.Value]int32)
	}
	return t
}

// NumClusters returns k.
func (t *FreqTable) NumClusters() int { return t.k }

// NumAttrs returns m.
func (t *FreqTable) NumAttrs() int { return t.m }

// Size returns cluster c's current member count.
func (t *FreqTable) Size(c int) int { return int(t.sizes[c]) }

// Mode returns cluster c's current mode. The slice aliases internal
// state, stays up to date as items move, and must not be modified.
func (t *FreqTable) Mode(c int) []dataset.Value {
	return t.modes[c*t.m : (c+1)*t.m : (c+1)*t.m]
}

// SetMode overwrites cluster c's mode without touching frequencies —
// used to install initial centroids before any member is added.
func (t *FreqTable) SetMode(c int, mode []dataset.Value) {
	if len(mode) != t.m {
		panic("kmodes: SetMode arity mismatch")
	}
	copy(t.Mode(c), mode)
}

// Add registers row as a member of cluster c and updates the mode.
func (t *FreqTable) Add(c int, row []dataset.Value) {
	if len(row) != t.m {
		panic("kmodes: Add arity mismatch")
	}
	base := c * t.m
	for a, v := range row {
		counts := t.counts[base+a]
		n := counts[v] + 1
		counts[v] = n
		cur := t.modes[base+a]
		best := counts[cur]
		// With ≥1 member the mode must be a counted value; adopt v on
		// strictly higher count, or on ties when v has a smaller ID or
		// the stored mode is a seeded (uncounted) placeholder.
		if n > best || (n == best && (v < cur || best == 0)) {
			t.modes[base+a] = v
		}
	}
	t.sizes[c]++
}

// AddMasked registers row as a member of cluster c, but counts only the
// attributes flagged in present towards the frequencies (and hence the
// modes). Absent attributes are missing data: their slot value is not
// observed, so it must not vote — folding it in would let placeholder
// values dominate the evolving mode on sparse data. The item still
// counts towards the cluster size. A nil mask is equivalent to Add.
//
// A masked-added row is only partially counted: Remove and Move
// decrement the full row, so calling either on such a row corrupts the
// table (counts of never-incremented values go negative). Rows folded
// in with a mask must be removed or moved with the same mask semantics
// — or, as in the streaming clusterer, never.
func (t *FreqTable) AddMasked(c int, row []dataset.Value, present []bool) {
	if present == nil {
		t.Add(c, row)
		return
	}
	if len(row) != t.m || len(present) != t.m {
		panic("kmodes: AddMasked arity mismatch")
	}
	base := c * t.m
	for a, v := range row {
		if !present[a] {
			continue
		}
		counts := t.counts[base+a]
		n := counts[v] + 1
		counts[v] = n
		cur := t.modes[base+a]
		best := counts[cur]
		if n > best || (n == best && (v < cur || best == 0)) {
			t.modes[base+a] = v
		}
	}
	t.sizes[c]++
}

// Remove unregisters row from cluster c and updates the mode. Removing a
// row that was never added corrupts the table; callers own that
// invariant.
func (t *FreqTable) Remove(c int, row []dataset.Value) {
	if len(row) != t.m {
		panic("kmodes: Remove arity mismatch")
	}
	base := c * t.m
	for a, v := range row {
		counts := t.counts[base+a]
		n := counts[v] - 1
		if n <= 0 {
			delete(counts, v)
		} else {
			counts[v] = n
		}
		// Only a decrement of the current mode value can change the
		// argmax; rescan that attribute's map.
		if t.modes[base+a] == v {
			t.rescan(c, a)
		}
	}
	t.sizes[c]--
}

// Move transfers row from cluster `from` to cluster `to`.
func (t *FreqTable) Move(from, to int, row []dataset.Value) {
	if from == to {
		return
	}
	t.Remove(from, row)
	t.Add(to, row)
}

// rescan recomputes the argmax of (c, a) from the frequency map. An
// emptied attribute keeps the previous mode value (KeepMode semantics).
func (t *FreqTable) rescan(c, a int) {
	counts := t.counts[c*t.m+a]
	if len(counts) == 0 {
		return
	}
	var bestVal dataset.Value
	var bestCount int32 = -1
	for v, n := range counts {
		if n > bestCount || (n == bestCount && v < bestVal) {
			bestCount, bestVal = n, v
		}
	}
	t.modes[c*t.m+a] = bestVal
}

// Model snapshots the current modes.
func (t *FreqTable) Model() *Model {
	return &Model{K: t.k, M: t.m, Modes: append([]dataset.Value(nil), t.modes...)}
}
