package kmodes

import (
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"lshcluster/internal/dataset"
)

// incTestSpace builds a tiny space over explicit rows with the first k
// items as seeds.
func incTestSpace(t *testing.T, rows [][]dataset.Value, k int, policy EmptyClusterPolicy) *Space {
	t.Helper()
	m := len(rows[0])
	values := make([]dataset.Value, 0, len(rows)*m)
	for _, r := range rows {
		values = append(values, r...)
	}
	ds, err := dataset.New(make([]string, m), values, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int32, k)
	for c := range seeds {
		seeds[c] = int32(c)
	}
	s, err := NewSpaceFromSeeds(ds, seeds, Config{EmptyCluster: policy})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEmptiedClusterKeepsPreviousPassMode pins the subtle KeepMode case:
// when a cluster loses all members during a pass, the batch path keeps
// the mode of the *previous* pass (computed from the then-members),
// not one derived from the order its members left in. FinishPass must
// keep batch semantics.
func TestEmptiedClusterKeepsPreviousPassMode(t *testing.T) {
	// Cluster 0 members hold values {1, 2} on the single attribute:
	// previous-pass mode is 1 (tie to the smaller value). Removing item
	// 0 (value 1) then item 2 (value 2) leaves value 2 last.
	rows := [][]dataset.Value{{1}, {9}, {2}}
	s := incTestSpace(t, rows, 2, KeepMode)
	assign := []int32{0, 1, 0}
	s.BeginIncremental(assign, true)
	if got := s.Mode(0)[0]; got != dataset.Value(1) {
		t.Fatalf("initial mode = %d, want 1", got)
	}

	// Batch oracle over the same assignment history.
	oracle := incTestSpace(t, rows, 2, KeepMode)
	oracle.RecomputeCentroids(assign)

	// Move both members of cluster 0 to cluster 1, emptying it.
	next := []int32{1, 1, 1}
	s.ApplyMove(0, 0, 1)
	s.ApplyMove(2, 0, 1)
	s.FinishPass(next)
	oracle.RecomputeCentroids(next)

	if got, want := s.Mode(0)[0], oracle.Mode(0)[0]; got != want {
		t.Fatalf("emptied cluster mode = %d, batch keeps %d", got, want)
	}
	if got, want := s.IncrementalCost(next), oracle.Cost(next); got != want {
		t.Fatalf("incremental cost = %v, batch %v", got, want)
	}

	// The emptied cluster must be able to attract and absorb members
	// again with exact mode maintenance.
	again := []int32{0, 1, 1}
	s.ApplyMove(0, 1, 0)
	s.FinishPass(again)
	oracle.RecomputeCentroids(again)
	if got, want := s.Mode(0)[0], oracle.Mode(0)[0]; got != want {
		t.Fatalf("refilled cluster mode = %d, batch %d", got, want)
	}
	if got, want := s.IncrementalCost(again), oracle.Cost(again); got != want {
		t.Fatalf("refilled incremental cost = %v, batch %v", got, want)
	}
}

// TestIncrementalRandomMoveSequence fuzzes a longer stateful move
// sequence against the batch oracle, pass by pass.
func TestIncrementalRandomMoveSequence(t *testing.T) {
	const n, k, m = 120, 8, 6
	rows := make([][]dataset.Value, n)
	// Deterministic pseudo-data with heavy value reuse so modes tie
	// and shift often.
	x := uint64(1)
	for i := range rows {
		r := make([]dataset.Value, m)
		for a := range r {
			x = x*6364136223846793005 + 1442695040888963407
			r[a] = dataset.Value(1 + (x>>33)%5)
		}
		rows[i] = r
	}
	s := incTestSpace(t, rows, k, KeepMode)
	oracle := incTestSpace(t, rows, k, KeepMode)

	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(i % k)
	}
	s.BeginIncremental(assign, true)
	oracle.RecomputeCentroids(assign)

	for pass := 0; pass < 30; pass++ {
		// A handful of pseudo-random moves per pass.
		for j := 0; j < 7; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			item := int((x >> 33) % n)
			to := int32((x >> 13) % k)
			from := assign[item]
			if to == from {
				continue
			}
			assign[item] = to
			s.ApplyMove(item, from, to)
		}
		s.FinishPass(assign)
		oracle.RecomputeCentroids(assign)
		for c := 0; c < k; c++ {
			gm, wm := s.Mode(c), oracle.Mode(c)
			for a := range gm {
				if gm[a] != wm[a] {
					t.Fatalf("pass %d cluster %d attr %d: incremental %d, batch %d",
						pass, c, a, gm[a], wm[a])
				}
			}
		}
		if got, want := s.IncrementalCost(assign), oracle.Cost(assign); got != want {
			t.Fatalf("pass %d: incremental cost %v, batch %v", pass, got, want)
		}
	}
}

// FuzzIncrementalModes drives the incremental engine through random
// move sequences over many passes and checks every publish against an
// oracle Space built from the same data, seeds and config that
// recomputes in full: the modes, ChangedClusters as a set, the cost and,
// at the end, the rng position. The first bytes choose the shape
// (m, k, n, domain) and the flags: the empty-cluster policy, raw IDs
// (one ID under several attributes) or dictionary encoding, a domain
// spanning all of uint32, and cost tracking. The rest seeds the data and
// the moves; some passes evacuate a whole cluster, emptying it.
func FuzzIncrementalModes(f *testing.F) {
	// TestIncrementalRandomMoveSequence's shape: n=120, k=8, m=6,
	// domain 5, KeepMode, tracked cost; then its variants.
	f.Add([]byte{5, 7, 3, 8, 112, 30, 1, 2, 3, 4})
	f.Add([]byte{5, 7, 3, 9, 112, 30, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 8, 10, 12, 9, 9})       // m=1, k=1, domain 2
	f.Add([]byte{0, 3, 0, 9, 40, 25, 4, 2})       // m=1, domain 2, reseed
	f.Add([]byte{7, 11, 6, 10, 90, 20, 3, 1, 4})  // dictionary-encoded
	f.Add([]byte{3, 5, 0, 12, 60, 15, 2, 7, 1})   // full uint32 domain
	f.Add([]byte{2, 9, 1, 1, 30, 40, 8, 8, 8, 8}) // untracked cost, reseed
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		m := 1 + int(data[0])%8
		k := 1 + int(data[1])%12
		domain := 2 + int(data[2])%7
		flags := data[3]
		policy := KeepMode
		if flags&1 != 0 {
			policy = ReseedRandomItem
		}
		dict, wide, trackCost := flags&2 != 0, flags&4 != 0, flags&8 != 0
		n := k + int(data[4])%121
		passes := 1 + int(data[5])%40
		x := uint64(1442695040888963407)
		for _, b := range data[6:] {
			x = (x ^ uint64(b)) * 6364136223846793005
		}
		next := func(bound int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int((x >> 33) % uint64(bound))
		}

		values := make([]dataset.Value, n*m)
		for j := range values {
			if wide {
				x = x*6364136223846793005 + 1442695040888963407
				values[j] = dataset.Value(x >> 32)
			} else {
				values[j] = dataset.Value(next(domain))
			}
		}
		newDataset := func() *dataset.Dataset {
			if !dict {
				ds, err := dataset.New(datasetAttrs(m), values, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return ds
			}
			b := dataset.NewBuilder(datasetAttrs(m))
			for i := 0; i < n; i++ {
				row := make([]string, m)
				for a := range row {
					row[a] = strconv.Itoa(int(values[i*m+a]))
				}
				if err := b.Add(row); err != nil {
					t.Fatal(err)
				}
			}
			ds, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}
		ds := newDataset()
		seeds := make([]int32, k)
		for c := range seeds {
			seeds[c] = int32(next(n))
		}
		cfg := Config{EmptyCluster: policy, Seed: int64(data[6])}
		s, err := NewSpaceFromSeeds(ds, seeds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewSpaceFromSeeds(ds, seeds, cfg)
		if err != nil {
			t.Fatal(err)
		}

		prev := make([]dataset.Value, k*m)
		// check recomputes the oracle and checks the engine's state
		// against it; all reports every cluster changed, as
		// BeginIncremental does.
		check := func(pass int, assign []int32, all bool) {
			t.Helper()
			copy(prev, oracle.modes)
			oracle.RecomputeCentroids(assign)
			sizes := oracle.ClusterSizes(assign)
			want := map[int32]bool{}
			for c := 0; c < k; c++ {
				if all || (policy == ReseedRandomItem && sizes[c] == 0) ||
					!slices.Equal(prev[c*m:(c+1)*m], oracle.Mode(c)) {
					want[int32(c)] = true
				}
				if !slices.Equal(s.Mode(c), oracle.Mode(c)) {
					t.Fatalf("pass %d cluster %d: mode %v, batch %v", pass, c, s.Mode(c), oracle.Mode(c))
				}
			}
			got := map[int32]bool{}
			for _, c := range s.ChangedClusters() {
				if got[c] {
					t.Fatalf("pass %d: cluster %d reported changed twice", pass, c)
				}
				got[c] = true
			}
			if !maps.Equal(got, want) {
				t.Fatalf("pass %d: ChangedClusters %v, want %v", pass, s.ChangedClusters(), want)
			}
			if got, want := s.IncrementalCost(assign), oracle.Cost(assign); got != want {
				t.Fatalf("pass %d: incremental cost %v, batch %v", pass, got, want)
			}
		}

		assign := make([]int32, n)
		for i := range assign {
			assign[i] = int32(next(k))
		}
		s.BeginIncremental(assign, trackCost)
		check(0, assign, true)
		for pass := 1; pass <= passes; pass++ {
			move := func(item int, to int32) {
				if from := assign[item]; from != to {
					assign[item] = to
					s.ApplyMove(item, from, to)
				}
			}
			if next(4) == 0 {
				// Evacuate one cluster into another.
				from, to := int32(next(k)), int32(next(k))
				for i, c := range assign {
					if c == from {
						move(i, to)
					}
				}
			} else {
				for j := next(2 * m); j > 0; j-- {
					move(next(n), int32(next(k)))
				}
			}
			s.FinishPass(assign)
			check(pass, assign, false)
		}
		if got, want := s.rng.Int63(), oracle.rng.Int63(); got != want {
			t.Fatalf("rng out of step with the batch path: next draw %d, batch %d", got, want)
		}
	})
}

// TestIncrementalPassDoesNotAllocate pins that a pass — moves, then
// FinishPass's bucketing, recount and publish — reuses the engine's
// buffers instead of allocating.
func TestIncrementalPassDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, k = 200, 10
	for _, policy := range []EmptyClusterPolicy{KeepMode, ReseedRandomItem} {
		s := incTestSpace(t, randomRows(rng, n, 7, 4), k, policy)
		assign := make([]int32, n)
		for i := range assign {
			assign[i] = int32(rng.Intn(k))
		}
		s.BeginIncremental(assign, true)
		allocs := testing.AllocsPerRun(20, func() {
			for j := 0; j < 30; j++ {
				item, to := rng.Intn(n), int32(rng.Intn(k))
				if from := assign[item]; from != to {
					assign[item] = to
					s.ApplyMove(item, from, to)
				}
			}
			s.FinishPass(assign)
		})
		if allocs != 0 {
			t.Fatalf("policy %d: %v allocations per pass, want 0", policy, allocs)
		}
	}
}
