// Package kmeans implements Lloyd's K-Means over dense numeric vectors
// as a second instantiation of the acceleration framework — the paper's
// stated further work ("extending our framework to work with not only
// categorical data, but numeric data", §VI). It satisfies core.Space, so
// the same driver that runs K-Modes/MH-K-Modes runs K-Means exactly or
// accelerated with the SimHash accelerator of internal/simhash.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"lshcluster/internal/kernel"
)

// EmptyClusterPolicy selects what happens to clusters that lose all
// members.
type EmptyClusterPolicy int

const (
	// KeepCentroid retains the previous centroid (default).
	KeepCentroid EmptyClusterPolicy = iota
	// ReseedRandomPoint re-centres on a random point.
	ReseedRandomPoint
)

// Config parameterises a Space.
type Config struct {
	// K is the number of clusters.
	K int
	// Seed drives seed-point selection and reseeding.
	Seed int64
	// EmptyCluster selects the empty-cluster policy.
	EmptyCluster EmptyClusterPolicy
}

// Space is a K-Means clustering space: n points of dimension dim with k
// mean centroids, using squared Euclidean distance.
type Space struct {
	data      []float64 // n·dim row-major
	dim       int
	k         int
	centroids []float64 // k·dim
	seeds     []int32
	policy    EmptyClusterPolicy
	rng       *rand.Rand
	sums      []float64
	counts    []int32

	// inc holds the incremental engine state (core.IncrementalSpace);
	// nil until BeginIncremental.
	inc *incremental

	// scalarKernels routes distance evaluations through the scalar
	// reference kernels instead of the unrolled ones — the oracle the
	// kernel equivalence runs compare against (core.KernelConfigurable).
	// The unrolled kernels keep the scalar accumulation order, so
	// results are bit-identical either way.
	scalarKernels bool
}

// SetScalarKernels switches the space between the unrolled distance
// kernels (false, the default) and their scalar references (true, the
// bit-identical oracle). Set before a run, not during one.
func (s *Space) SetScalarKernels(scalar bool) { s.scalarKernels = scalar }

// NewSpace picks cfg.K distinct random points as initial centroids.
// Every coordinate must be finite (see NewSpaceFromSeeds).
func NewSpace(points []float64, dim int, cfg Config) (*Space, error) {
	if dim < 1 {
		return nil, fmt.Errorf("kmeans: dim must be ≥ 1, got %d", dim)
	}
	if len(points)%dim != 0 {
		return nil, fmt.Errorf("kmeans: %d values not a multiple of dim %d", len(points), dim)
	}
	n := len(points) / dim
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("kmeans: k=%d out of range [1,%d]", cfg.K, n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < cfg.K; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return NewSpaceFromSeeds(points, dim, idx[:cfg.K:cfg.K], cfg)
}

// NewSpaceFromSeeds builds a space whose initial centroids are copies of
// the given points. Every coordinate must be finite: one NaN or ±Inf
// would poison its cluster's centroid and the objective.
func NewSpaceFromSeeds(points []float64, dim int, seedItems []int32, cfg Config) (*Space, error) {
	if dim < 1 {
		return nil, fmt.Errorf("kmeans: dim must be ≥ 1, got %d", dim)
	}
	if len(points)%dim != 0 {
		return nil, fmt.Errorf("kmeans: %d values not a multiple of dim %d", len(points), dim)
	}
	for i, v := range points {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("kmeans: value %d (point %d, coordinate %d) is %v; coordinates must be finite", i, i/dim, i%dim, v)
		}
	}
	n := len(points) / dim
	k := len(seedItems)
	if k < 1 {
		return nil, fmt.Errorf("kmeans: no seed points")
	}
	if cfg.K != 0 && cfg.K != k {
		return nil, fmt.Errorf("kmeans: cfg.K=%d but %d seed points", cfg.K, k)
	}
	s := &Space{
		data:      points,
		dim:       dim,
		k:         k,
		centroids: make([]float64, k*dim),
		seeds:     append([]int32(nil), seedItems...),
		policy:    cfg.EmptyCluster,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		sums:      make([]float64, k*dim),
		counts:    make([]int32, k),
	}
	for c, item := range seedItems {
		if item < 0 || int(item) >= n {
			return nil, fmt.Errorf("kmeans: seed point %d out of range", item)
		}
		copy(s.centroid(c), s.Point(int(item)))
	}
	return s, nil
}

// Point returns point i; the slice aliases the backing store.
func (s *Space) Point(i int) []float64 {
	return s.data[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
}

func (s *Space) centroid(c int) []float64 {
	return s.centroids[c*s.dim : (c+1)*s.dim : (c+1)*s.dim]
}

// Centroid returns cluster c's centroid; the slice aliases internal
// state and must not be modified.
func (s *Space) Centroid(c int) []float64 { return s.centroid(c) }

// Dim returns the vector dimensionality.
func (s *Space) Dim() int { return s.dim }

// NumItems returns the number of points.
func (s *Space) NumItems() int { return len(s.data) / s.dim }

// NumClusters returns k.
func (s *Space) NumClusters() int { return s.k }

// Seeds returns the points the initial centroids were copied from.
func (s *Space) Seeds() []int32 { return s.seeds }

// Dissimilarity returns the squared Euclidean distance between point
// item and centroid cluster, via the unrolled kernel (bit-identical to
// the scalar reference by construction).
func (s *Space) Dissimilarity(item, cluster int) float64 {
	p := s.Point(item)
	c := s.centroid(cluster)
	if s.scalarKernels {
		return kernel.SquaredDistanceScalar(p, c)
	}
	return kernel.SquaredDistance(p, c)
}

// BoundedDissimilarity accumulates the squared distance but returns as
// soon as the partial sum reaches bound (the sum is monotone in the
// coordinates). The unrolled kernel checks the bound once per block,
// so an early exit may return a larger partial sum than the scalar
// reference's — both ≥ bound, which is all the driver relies on;
// results below the bound are bit-identical.
func (s *Space) BoundedDissimilarity(item, cluster int, bound float64) float64 {
	p := s.Point(item)
	c := s.centroid(cluster)
	if s.scalarKernels {
		return kernel.SquaredDistanceBoundedScalar(p, c, bound)
	}
	return kernel.SquaredDistanceBounded(p, c, bound)
}

// RecomputeCentroids sets every centroid to the mean of its members;
// empty clusters follow the configured policy.
func (s *Space) RecomputeCentroids(assign []int32) {
	if len(assign) != s.NumItems() {
		panic("kmeans: assignment length mismatch")
	}
	for i := range s.sums {
		s.sums[i] = 0
	}
	for i := range s.counts {
		s.counts[i] = 0
	}
	for i, c := range assign {
		p := s.Point(i)
		dst := s.sums[int(c)*s.dim : (int(c)+1)*s.dim]
		//lshvet:ignore kernelcheck centroid sum accumulation, not a distance reduction; this batch loop is itself the incremental engine's oracle
		for j := range p {
			dst[j] += p[j]
		}
		s.counts[c]++
	}
	for c := 0; c < s.k; c++ {
		if s.counts[c] == 0 {
			if s.policy == ReseedRandomPoint {
				copy(s.centroid(c), s.Point(s.rng.Intn(s.NumItems())))
			}
			continue
		}
		dst := s.centroid(c)
		src := s.sums[c*s.dim : (c+1)*s.dim]
		inv := 1 / float64(s.counts[c])
		for j := range dst {
			dst[j] = src[j] * inv
		}
	}
}

// Cost returns the K-Means objective: the total squared distance of
// every point to its assigned centroid.
func (s *Space) Cost(assign []int32) float64 {
	var total float64
	for i, c := range assign {
		total += s.Dissimilarity(i, int(c))
	}
	return total
}
