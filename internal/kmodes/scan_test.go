package kmodes

import (
	"fmt"
	"math/rand"
	"testing"

	"lshcluster/internal/dataset"
)

// pairwiseNearest is the scan's oracle: the lowest-indexed mode at
// minimum scalar mismatch count, by comparing item against every mode.
func pairwiseNearest(s *Space, item int) int {
	row := s.ds.Row(item)
	best, bestD := 0, dataset.MismatchesScalar(row, s.Mode(0))
	for c := 1; c < s.k; c++ {
		if d := dataset.MismatchesScalar(row, s.Mode(c)); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// assertScanMatchesPairwise checks NearestExact against pairwiseNearest
// on every item of s under its current modes, and that the scan leaves
// its scratch zeroed.
func assertScanMatchesPairwise(t testing.TB, s *Space) {
	t.Helper()
	s.BeginExactScan()
	defer s.EndExactScan()
	scratch := make([]int32, s.NumClusters())
	for i := 0; i < s.NumItems(); i++ {
		got, want := s.NearestExact(i, scratch), pairwiseNearest(s, i)
		if got != want {
			t.Fatalf("item %d: NearestExact = %d, pairwise = %d (k=%d, m=%d)", i, got, want, s.k, s.m)
		}
		for c, n := range scratch {
			if n != 0 {
				t.Fatalf("item %d: scratch[%d] = %d after the scan, want 0", i, c, n)
			}
		}
	}
}

// rawSpace builds a space over rows of raw value IDs (no dictionary, so
// one ID may appear under several attributes) with modes copied from
// seeds.
func rawSpace(t testing.TB, rows [][]dataset.Value, seeds []int32) *Space {
	t.Helper()
	m := len(rows[0])
	values := make([]dataset.Value, 0, len(rows)*m)
	for _, r := range rows {
		values = append(values, r...)
	}
	ds, err := dataset.New(datasetAttrs(m), values, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpaceFromSeeds(ds, seeds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomRows draws n rows of m values from [1, domain].
func randomRows(rng *rand.Rand, n, m, domain int) [][]dataset.Value {
	rows := make([][]dataset.Value, n)
	for i := range rows {
		rows[i] = make([]dataset.Value, m)
		for a := range rows[i] {
			rows[i][a] = dataset.Value(1 + rng.Intn(domain))
		}
	}
	return rows
}

// randomSeeds draws k seed items from [0, n), duplicates allowed.
func randomSeeds(rng *rand.Rand, n, k int) []int32 {
	seeds := make([]int32, k)
	for i := range seeds {
		seeds[i] = int32(rng.Intn(n))
	}
	return seeds
}

func TestExactScanMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n, m, k, domain int
	}{
		{5, 1, 1, 3},     // k=1, m=1
		{40, 1, 6, 4},    // m=1, ties everywhere
		{60, 13, 9, 5},   // m not a multiple of 8
		{30, 300, 7, 3},  // m > 255: counts past a byte
		{200, 6, 25, 2},  // tiny binary domain, ties common
		{150, 9, 40, 60}, // sparse matches
	} {
		t.Run(fmt.Sprintf("n=%d/m=%d/k=%d/domain=%d", tc.n, tc.m, tc.k, tc.domain), func(t *testing.T) {
			rows := randomRows(rng, tc.n, tc.m, tc.domain)
			s := rawSpace(t, rows, randomSeeds(rng, tc.n, tc.k))
			assertScanMatchesPairwise(t, s)
			// Recomputed modes are not copies of any item.
			assign := make([]int32, tc.n)
			for i := range assign {
				assign[i] = int32(rng.Intn(tc.k))
			}
			s.RecomputeCentroids(assign)
			assertScanMatchesPairwise(t, s)
		})
	}
}

func TestExactScanDuplicateModesTieLowest(t *testing.T) {
	rows := [][]dataset.Value{{1, 2, 3}, {4, 5, 6}, {1, 2, 9}, {4, 5, 6}}
	// Modes 1, 2 and 4 are all copies of item 1; mode 0 and 3 of item 0.
	s := rawSpace(t, rows, []int32{0, 1, 1, 0, 1})
	assertScanMatchesPairwise(t, s)
	s.BeginExactScan()
	defer s.EndExactScan()
	scratch := make([]int32, s.NumClusters())
	if got := s.NearestExact(3, scratch); got != 1 {
		t.Fatalf("item 3: NearestExact = %d, want the lowest duplicate 1", got)
	}
	if got := s.NearestExact(2, scratch); got != 0 {
		t.Fatalf("item 2: NearestExact = %d, want the lowest duplicate 0", got)
	}
}

func TestExactScanConstantAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randomRows(rng, 80, 7, 6)
	for _, r := range rows {
		r[3] = 42 // every mode holds 42 on attribute 3
	}
	s := rawSpace(t, rows, randomSeeds(rng, 80, 12))
	assertScanMatchesPairwise(t, s)
}

func TestExactScanNoSharedValueIsClusterZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randomRows(rng, 50, 5, 10)
	// Items 40.. hold values no seed (all < 40) holds on any attribute.
	for i := 40; i < 50; i++ {
		for a := range rows[i] {
			rows[i][a] = dataset.Value(1000 + i*10 + a)
		}
	}
	s := rawSpace(t, rows, []int32{7, 3, 19, 3, 28})
	assertScanMatchesPairwise(t, s)
	s.BeginExactScan()
	defer s.EndExactScan()
	scratch := make([]int32, s.NumClusters())
	for i := 40; i < 50; i++ {
		if got := s.NearestExact(i, scratch); got != 0 {
			t.Fatalf("item %d shares nothing with any mode: NearestExact = %d, want 0", i, got)
		}
	}
}

// TestExactScanValueUnderSeveralAttributes covers both encodings: raw
// IDs where one ID appears under several attributes (a value matching
// on one attribute must not count on another), and the dictionary,
// which tags each (attribute, raw value) pair with its own ID.
func TestExactScanValueUnderSeveralAttributes(t *testing.T) {
	rows := [][]dataset.Value{{1, 2, 3}, {3, 1, 2}, {2, 3, 1}, {1, 1, 1}, {3, 2, 1}}
	s := rawSpace(t, rows, []int32{0, 1, 2})
	assertScanMatchesPairwise(t, s)

	rng := rand.New(rand.NewSource(4))
	raws := []string{"x", "y", "z"}
	b := dataset.NewBuilder(datasetAttrs(4))
	for i := 0; i < 60; i++ {
		row := make([]string, 4)
		for a := range row {
			row[a] = raws[rng.Intn(len(raws))]
		}
		if err := b.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dictSpace, err := NewSpaceFromSeeds(ds, randomSeeds(rng, 60, 8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertScanMatchesPairwise(t, dictSpace)
}

// FuzzExactScan compares NearestExact with the pairwise scan on
// arbitrary small datasets: the first bytes pick m, k and the domain
// (and whether the modes are recomputed from a byte-driven assignment),
// the rest fill the values and choose the seeds.
func FuzzExactScan(f *testing.F) {
	f.Add([]byte{1, 1, 2, 0, 1, 2, 1, 2})
	f.Add([]byte{13, 4, 3, 1, 0, 1, 2, 2, 1, 0, 3, 3, 2, 1, 0, 0, 1, 2, 2, 1, 0, 1, 2, 3, 1, 1, 1})
	f.Add([]byte{255, 9, 2, 0, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		m := 1 + int(data[0])%300
		if data[3]&2 != 0 {
			m += 255 // reach m > 255 from short inputs too
		}
		k := 1 + int(data[1])%16
		domain := 1 + int(data[2])%8
		recompute := data[3]&1 != 0
		body := data[4:]
		n := len(body) / m
		if n < 1 {
			n = 1
		}
		if n > 64 {
			n = 64
		}
		rows := make([][]dataset.Value, n)
		for i := range rows {
			rows[i] = make([]dataset.Value, m)
			for a := range rows[i] {
				rows[i][a] = dataset.Value(1 + int(body[(i*m+a)%len(body)])%domain)
			}
		}
		seeds := make([]int32, k)
		for c := range seeds {
			seeds[c] = int32(int(body[(c*7+3)%len(body)]) % n)
		}
		s := rawSpace(t, rows, seeds)
		if recompute {
			assign := make([]int32, n)
			for i := range assign {
				assign[i] = int32(int(body[(i*5+1)%len(body)]) % k)
			}
			s.RecomputeCentroids(assign)
		}
		assertScanMatchesPairwise(t, s)
	})
}
