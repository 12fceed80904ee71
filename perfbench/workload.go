package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"lshcluster"
	"lshcluster/internal/core"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/simhash"
)

// scale holds the problem sizes of every workload.
type scale struct {
	// Categorical workloads (kmodes-cold, kmodes-warm).
	items, attrs, domain, k int
	bands, rows, shards     int
	// Numeric workload (simhash-kmeans).
	points, dim, numK int
	simBands, simRows int
	// sample is the size of the seeded item sample nearest_frac and
	// shortlist recall are measured on.
	sample int
}

// fullScale is what the benchmark measures.
var fullScale = scale{
	items: 100000, attrs: 24, domain: 200, k: 1000, bands: 20, rows: 5, shards: 4,
	points: 50000, dim: 32, numK: 500, simBands: 12, simRows: 12,
	sample: 2000,
}

// smokeScale runs every workload in well under a second, for tests.
var smokeScale = scale{
	items: 3000, attrs: 12, domain: 40, k: 40, bands: 10, rows: 3, shards: 4,
	points: 2000, dim: 8, numK: 30, simBands: 6, simRows: 8,
	sample: 200,
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"kmodes-cold", "kmodes-warm", "simhash-kmeans"}

// solveOut is what one untraced call measured and returned.
type solveOut struct {
	solveS, setupS, iterateS float64
	allocMB                  float64
	gcPauseS                 float64
	numGC                    uint32
	assign                   []int32
	purity                   float64
	// stats is the run's statistics.
	stats *lshcluster.Run
	// Batch results: the K-Modes model or the K-Means centroids.
	model     *lshcluster.Model
	centroids []float64
	// unreleasedMB is how much more of the index directory is mapped
	// after the call returned than before it (warm K-Modes only).
	unreleasedMB float64
}

// measure runs fn after a collection, so each call starts from a clean
// heap, and reports its wall time, allocated bytes and GC work.
func measure(fn func() error) (wall time.Duration, allocMB, gcPauseS float64, numGC uint32, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err = fn()
	wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	gcPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	numGC = m1.NumGC - m0.NumGC
	return wall, allocMB, gcPauseS, numGC, err
}

// sampleItems draws a fixed seeded sample of size items out of n.
func sampleItems(n, size int, seed int64) []int {
	if size > n {
		size = n
	}
	return rand.New(rand.NewSource(seed ^ 0x5a5a)).Perm(n)[:size]
}

// instance is one workload with its inputs generated from a seed.
type instance interface {
	// solve runs one untraced call through the public facade.
	solve() (*solveOut, error)
	// redrive runs the same clustering traced, layer by layer.
	redrive(tr *tracer) (*redriveResult, error)
	// nearestFrac is the share of the sample whose final cluster is at
	// exact-nearest distance.
	nearestFrac(out *solveOut) float64
	// info describes the inputs for the machine report.
	info() map[string]any
	// close removes anything the instance wrote.
	close()
}

// newInstance generates the named workload's inputs from seed. scratch
// is a directory inside the checkout the instance may write to.
func newInstance(name string, seed int64, sc scale, workers int, scratch string) (instance, error) {
	switch name {
	case "kmodes-cold", "kmodes-warm":
		ds, err := lshcluster.GenerateSynthetic(lshcluster.SyntheticConfig{
			Items: sc.items, Clusters: sc.k, Attrs: sc.attrs, Domain: sc.domain, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		in := &kmodesInstance{sc: sc, seed: seed, workers: workers, ds: ds,
			sample: sampleItems(sc.items, sc.sample, seed)}
		if name == "kmodes-warm" {
			if err := in.prime(scratch); err != nil {
				in.close()
				return nil, err
			}
		}
		return in, nil
	case "simhash-kmeans":
		pts, labels, err := lshcluster.GenerateBlobs(lshcluster.BlobsConfig{
			Points: sc.points, Clusters: sc.numK, Dim: sc.dim, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return &kmeansInstance{sc: sc, seed: seed, workers: workers, points: pts, labels: labels,
			sample: sampleItems(sc.points, sc.sample, seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// kmodesInstance is the categorical K-Modes workload, cold or warm.
type kmodesInstance struct {
	sc      scale
	seed    int64
	workers int
	ds      *lshcluster.Dataset
	sample  []int
	// Warm only: the primed index directory, the priming (cold) run's
	// assignment and its index save time.
	indexDir    string
	primeAssign []int32
	primeSaveS  float64
}

func (in *kmodesInstance) config() lshcluster.Config {
	return lshcluster.Config{
		K:               in.sc.k,
		LSH:             &lshcluster.Params{Bands: in.sc.bands, Rows: in.sc.rows},
		Seed:            in.seed,
		Shards:          in.sc.shards,
		Workers:         in.workers,
		DeferredUpdates: true,
		IndexDir:        in.indexDir,
	}
}

// prime runs one cold call that saves its index into a fresh directory
// under scratch; later calls warm-start from it.
func (in *kmodesInstance) prime(scratch string) error {
	dir, err := os.MkdirTemp(scratch, "index-")
	if err != nil {
		return err
	}
	in.indexDir = dir
	res, err := lshcluster.Cluster(in.ds, in.config())
	if err != nil {
		return fmt.Errorf("priming the index: %w", err)
	}
	if res.Stats.WarmStart {
		return fmt.Errorf("priming run warm-started from a fresh directory")
	}
	in.primeAssign = res.Assign
	in.primeSaveS = res.Stats.IndexSaveTime.Seconds()
	return nil
}

func (in *kmodesInstance) solve() (*solveOut, error) {
	var res *lshcluster.Result
	mapped := mappedMiB(in.indexDir)
	wall, alloc, pause, gcs, err := measure(func() error {
		var err error
		res, err = lshcluster.Cluster(in.ds, in.config())
		return err
	})
	if err != nil {
		return nil, err
	}
	if in.indexDir != "" && !res.Stats.WarmStart {
		return nil, fmt.Errorf("run with a primed index directory did not warm-start")
	}
	out := batchOut(wall, alloc, pause, gcs, res.Assign, res.Stats, res.Model, nil)
	if in.indexDir != "" {
		out.unreleasedMB = mappedMiB(in.indexDir) - mapped
	}
	return out, nil
}

// batchOut assembles a batch call's measurements. setup_s is the wall
// time outside the timed passes.
func batchOut(wall time.Duration, alloc, pause float64, gcs uint32, assign []int32, stats lshcluster.Run,
	model *lshcluster.Model, centroids []float64) *solveOut {
	var iter time.Duration
	for _, it := range stats.Iterations {
		iter += it.Duration
	}
	return &solveOut{
		solveS: wall.Seconds(), setupS: (wall - iter).Seconds(), iterateS: iter.Seconds(),
		allocMB: alloc, gcPauseS: pause, numGC: gcs,
		assign: assign, purity: stats.Purity, stats: &stats, model: model, centroids: centroids,
	}
}

func (in *kmodesInstance) redrive(tr *tracer) (*redriveResult, error) {
	cfg := in.config()
	plan := batchPlan{
		space: "kmodes", sign: "lsh",
		newSpace: func() (spaceUnderTest, error) {
			return kmodes.NewSpace(in.ds, kmodes.Config{K: cfg.K, Seed: cfg.Seed})
		},
		newAccel: func(spaceUnderTest) (accelUnderTest, error) {
			// The facade's hash seed for the MinHash accelerator.
			return core.NewMinHashAccelerator(in.ds, *cfg.LSH, uint64(cfg.Seed)+0x9e37)
		},
		opts: coreOptions(cfg),
		finish: func(space spaceUnderTest, assign []int32) error {
			space.(*kmodes.Space).Model() // the snapshot the facade returns
			_, err := lshcluster.Purity(assign, in.ds.Labels())
			return err
		},
		sample: in.sample,
	}
	return redriveBatch(plan, tr)
}

func (in *kmodesInstance) nearestFrac(out *solveOut) float64 {
	return modelNearestFrac(in.ds, in.sample, out)
}

// modelNearestFrac is nearest_frac for a categorical result: the share
// of the sample whose assigned mode is at the distance of the model's
// exact-nearest mode (Model.Predict).
func modelNearestFrac(ds *lshcluster.Dataset, sample []int, out *solveOut) float64 {
	hit := 0
	for _, i := range sample {
		row := ds.Row(i)
		_, best := out.model.Predict(row)
		if dataset.Mismatches(row, out.model.Mode(int(out.assign[i]))) == best {
			hit++
		}
	}
	return float64(hit) / float64(len(sample))
}

func (in *kmodesInstance) info() map[string]any {
	return map[string]any{
		"items": in.sc.items, "attrs": in.sc.attrs, "domain": in.sc.domain, "k": in.sc.k,
		"bands": in.sc.bands, "rows": in.sc.rows, "shards": in.sc.shards, "workers": in.workers,
		"warm": in.indexDir != "",
		// Row-major uint32 values.
		"dataset_bytes": in.sc.items * in.sc.attrs * 4,
	}
}

func (in *kmodesInstance) close() {
	if in.indexDir != "" {
		os.RemoveAll(in.indexDir)
	}
}

// kmeansInstance is the numeric SimHash K-Means workload.
type kmeansInstance struct {
	sc      scale
	seed    int64
	workers int
	points  []float64
	labels  []int32
	sample  []int
}

func (in *kmeansInstance) config() lshcluster.Config {
	return lshcluster.Config{
		K:               in.sc.numK,
		LSH:             &lshcluster.Params{Bands: in.sc.simBands, Rows: in.sc.simRows},
		Seed:            in.seed,
		Workers:         in.workers,
		DeferredUpdates: true,
	}
}

func (in *kmeansInstance) solve() (*solveOut, error) {
	var res *lshcluster.NumericResult
	wall, alloc, pause, gcs, err := measure(func() error {
		var err error
		res, err = lshcluster.ClusterNumeric(in.points, in.sc.dim, in.config())
		return err
	})
	if err != nil {
		return nil, err
	}
	out := batchOut(wall, alloc, pause, gcs, res.Assign, res.Stats, nil, res.Centroids)
	// ClusterNumeric leaves purity to the caller.
	if out.purity, err = lshcluster.Purity(res.Assign, in.labels); err != nil {
		return nil, err
	}
	return out, nil
}

func (in *kmeansInstance) redrive(tr *tracer) (*redriveResult, error) {
	cfg := in.config()
	plan := batchPlan{
		space: "kmeans", sign: "simhash",
		newSpace: func() (spaceUnderTest, error) {
			return kmeans.NewSpace(in.points, in.sc.dim, kmeans.Config{K: cfg.K, Seed: cfg.Seed})
		},
		newAccel: func(s spaceUnderTest) (accelUnderTest, error) {
			// The facade's hash seed for the SimHash accelerator.
			return simhash.NewAccelerator(s.(*kmeans.Space), *cfg.LSH, cfg.Seed+0x51)
		},
		opts: coreOptions(cfg),
		finish: func(space spaceUnderTest, _ []int32) error {
			ks := space.(*kmeans.Space)
			// The centroid copy the facade returns.
			centroids := make([]float64, cfg.K*in.sc.dim)
			for c := 0; c < cfg.K; c++ {
				copy(centroids[c*in.sc.dim:], ks.Centroid(c))
			}
			return nil
		},
		sample: in.sample,
	}
	return redriveBatch(plan, tr)
}

func (in *kmeansInstance) nearestFrac(out *solveOut) float64 {
	dim, k := in.sc.dim, len(out.centroids)/in.sc.dim
	dist := func(i, c int) float64 {
		s := 0.0
		for j := 0; j < dim; j++ {
			d := in.points[i*dim+j] - out.centroids[c*dim+j]
			s += d * d
		}
		return s
	}
	hit := 0
	for _, i := range in.sample {
		best := dist(i, 0)
		for c := 1; c < k; c++ {
			best = min(best, dist(i, c))
		}
		if dist(i, int(out.assign[i])) == best {
			hit++
		}
	}
	return float64(hit) / float64(len(in.sample))
}

func (in *kmeansInstance) info() map[string]any {
	return map[string]any{
		"points": in.sc.points, "dim": in.sc.dim, "k": in.sc.numK,
		"bands": in.sc.simBands, "rows": in.sc.simRows, "workers": in.workers,
		// Row-major float64 coordinates.
		"dataset_bytes": in.sc.points * in.sc.dim * 8,
	}
}

func (in *kmeansInstance) close() {}
