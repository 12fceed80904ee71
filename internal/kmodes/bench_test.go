package kmodes

import (
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
)

func benchSpace(b *testing.B, n, k, m int) (*Space, *dataset.Dataset) {
	b.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Items: n, Clusters: k, Attrs: m, Domain: 40000, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSpace(ds, Config{K: k, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return s, ds
}

func BenchmarkDissimilarity100Attrs(b *testing.B) {
	s, _ := benchSpace(b, 500, 50, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Dissimilarity(i%500, i%50)
	}
}

func BenchmarkBoundedDissimilarity100Attrs(b *testing.B) {
	s, _ := benchSpace(b, 500, 50, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.BoundedDissimilarity(i%500, i%50, 10)
	}
}

func BenchmarkRecomputeCentroids(b *testing.B) {
	s, ds := benchSpace(b, 2000, 200, 50)
	assign := make([]int32, ds.NumItems())
	for i := range assign {
		assign[i] = int32(i % 200)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RecomputeCentroids(assign)
	}
}

func BenchmarkFreqTableMove(b *testing.B) {
	ds, err := datagen.Generate(datagen.Config{
		Items: 1000, Clusters: 100, Attrs: 50, Domain: 40000, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	ft := NewFreqTable(100, 50)
	for i := 0; i < 1000; i++ {
		ft.Add(i%100, ds.Row(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item := i % 1000
		from := item % 100
		to := (item + 1) % 100
		ft.Move(from, to, ds.Row(item))
		ft.Move(to, from, ds.Row(item))
	}
}

// shapeDataset generates the benchmark's K-Modes shape: 100k items ×
// 24 attributes, domain 200, 1000 clusters.
func shapeDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	ds, err := datagen.Generate(datagen.Config{Items: 100_000, Clusters: 1000, Attrs: 24, Domain: 200, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// shapeSpace builds a fresh k=1000 Space over ds with the timer
// stopped.
func shapeSpace(b *testing.B, ds *dataset.Dataset) *Space {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	s, err := NewSpace(ds, Config{K: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkExactScan runs the exact first assignment on the
// benchmark's K-Modes shape two ways, each reporting ns/item: the
// posting-list scan (BeginExactScan included, on a fresh Space per op
// so that numbering the value codes is timed too) and the pairwise
// all-k Dissimilarity loop it replaces.
func BenchmarkExactScan(b *testing.B) {
	ds := shapeDataset(b)
	n, k := ds.NumItems(), 1000
	s := shapeSpace(b, ds)
	assign := make([]int32, n)
	b.Run("postings", func(b *testing.B) {
		scratch := make([]int32, k)
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			s := shapeSpace(b, ds)
			s.BeginExactScan()
			for i := range assign {
				assign[i] = int32(s.NearestExact(i, scratch))
			}
			s.EndExactScan()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
	})
	b.Run("pairwise", func(b *testing.B) {
		b.ReportAllocs()
		for it := 0; it < b.N; it++ {
			for i := range assign {
				best, bestD := 0, s.Dissimilarity(i, 0)
				for c := 1; c < k; c++ {
					if d := s.Dissimilarity(i, c); d < bestD {
						best, bestD = c, d
					}
				}
				assign[i] = int32(best)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
	})
}

// BenchmarkBeginIncremental starts the incremental engine on the
// benchmark's K-Modes shape from the exact first assignment: each op
// builds a fresh Space, so it includes numbering the dataset's value
// codes, recounting all k modes and caching every item's cost.
func BenchmarkBeginIncremental(b *testing.B) {
	ds := shapeDataset(b)
	s := shapeSpace(b, ds)
	assign := make([]int32, ds.NumItems())
	scratch := make([]int32, s.NumClusters())
	s.BeginExactScan()
	for i := range assign {
		assign[i] = int32(s.NearestExact(i, scratch))
	}
	s.EndExactScan()
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		shapeSpace(b, ds).BeginIncremental(assign, true)
	}
}
