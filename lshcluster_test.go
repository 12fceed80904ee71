package lshcluster

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lshcluster/internal/core"
	"lshcluster/internal/reference"
)

func syntheticDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := GenerateSynthetic(SyntheticConfig{
		Items: 300, Clusters: 15, Attrs: 20, Domain: 300,
		MinRuleFrac: 0.6, MaxRuleFrac: 0.9, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestClusterExactAndAccelerated(t *testing.T) {
	ds := syntheticDataset(t)
	exact, err := Cluster(ds, Config{K: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.Name != "K-Modes" {
		t.Fatalf("name = %q", exact.Stats.Name)
	}
	mh, err := Cluster(ds, Config{K: 15, Seed: 2, LSH: &Params{Bands: 15, Rows: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if mh.Stats.Name != "MH-K-Modes 15b2r" {
		t.Fatalf("name = %q", mh.Stats.Name)
	}
	if len(mh.Assign) != ds.NumItems() {
		t.Fatal("assignment length mismatch")
	}
	// Identical seeds → identical initial centroids → comparable purity.
	if mh.Stats.Purity < exact.Stats.Purity-0.15 {
		t.Fatalf("purity: mh=%v exact=%v", mh.Stats.Purity, exact.Stats.Purity)
	}
	if mh.Model == nil || mh.Model.K != 15 {
		t.Fatal("model missing")
	}
}

func TestClusterOptionsPlumbing(t *testing.T) {
	ds := syntheticDataset(t)
	res, err := Cluster(ds, Config{
		K: 15, Seed: 2, LSH: &Params{Bands: 10, Rows: 2},
		Workers:         3,
		SeededBootstrap: false,
		DeferredUpdates: true,
		LowestIndexTies: true,
		EarlyAbandon:    true,
		MaxIterations:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumIterations() > 4 {
		t.Fatal("iteration cap ignored")
	}
	calls := 0
	_, err = Cluster(ds, Config{K: 5, MaxIterations: 2, OnIteration: func(Iteration) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnIteration not invoked")
	}
}

// assertClusterMatchesReference requires Cluster(ds, cfg) to equal
// the reference driver run on the space and options the facade builds
// for cfg (reference.Diff: assignment, per-pass moves and cost,
// convergence, and the work counters of every full pass).
func assertClusterMatchesReference(t testing.TB, ds *Dataset, cfg Config) *Result {
	t.Helper()
	got, err := Cluster(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	space, opts, err := kmodesRun(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference.Run(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := reference.Diff(&core.Result{Assign: got.Assign, Stats: got.Stats}, want); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestClusterParallelBootstrapEquivalence checks the facade-level
// bootstrap: the parallel sign → build → assign pipeline must produce
// the clustering of the reference driver's serial per-item bootstrap,
// and the pipeline must report its phase split.
func TestClusterParallelBootstrapEquivalence(t *testing.T) {
	ds := syntheticDataset(t)
	par := assertClusterMatchesReference(t, ds, Config{
		K: 15, Seed: 2, LSH: &Params{Bands: 10, Rows: 2}, Workers: 4, MaxIterations: 6,
	})
	if par.Stats.BootstrapSign <= 0 || par.Stats.BootstrapBuild <= 0 || par.Stats.BootstrapAssign <= 0 {
		t.Fatalf("parallel bootstrap phases not recorded: sign=%v build=%v assign=%v",
			par.Stats.BootstrapSign, par.Stats.BootstrapBuild, par.Stats.BootstrapAssign)
	}
}

// TestClusterShardEquivalence checks the facade-level shard A/B: an
// item-sharded index must produce the identical clustering to the
// unsharded oracle, for batch K-Modes (with shard stats recorded) and
// for the streaming clusterer.
func TestClusterShardEquivalence(t *testing.T) {
	ds := syntheticDataset(t)
	cfg := Config{K: 15, Seed: 2, LSH: &Params{Bands: 10, Rows: 2}, MaxIterations: 6}
	oracle, err := Cluster(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 3
	sharded, err := Cluster(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oracle.Assign {
		if oracle.Assign[i] != sharded.Assign[i] {
			t.Fatalf("assign[%d]: sharded %d, oracle %d", i, sharded.Assign[i], oracle.Assign[i])
		}
	}
	if sharded.Stats.Shards != 3 {
		t.Fatalf("Stats.Shards = %d, want 3", sharded.Stats.Shards)
	}
	if len(sharded.Stats.BootstrapBuildShards) != 3 {
		t.Fatalf("BootstrapBuildShards has %d entries, want 3", len(sharded.Stats.BootstrapBuildShards))
	}

	stream := func(shards int) []int32 {
		sc, err := NewStream(StreamConfig{
			Params:       Params{Bands: 10, Rows: 2},
			Seed:         7,
			InitialModes: append(append([]Value{}, ds.Row(0)...), ds.Row(1)...),
			NumAttrs:     ds.NumAttrs(),
			Shards:       shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ds.NumItems(); i++ {
			if _, err := sc.Add(ds.Row(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		return sc.Assignments()
	}
	one, four := stream(1), stream(4)
	for i := range one {
		if one[i] != four[i] {
			t.Fatalf("stream item %d: sharded %d, oracle %d", i, four[i], one[i])
		}
	}
}

// TestClusterMatchesReference checks the facade's default
// accelerated run — immediate updates, incremental engine, active-set
// filter — against the reference driver, which recomputes centroids
// and cost in full and evaluates every item every pass.
func TestClusterMatchesReference(t *testing.T) {
	ds := syntheticDataset(t)
	assertClusterMatchesReference(t, ds, Config{K: 15, Seed: 2, LSH: &Params{Bands: 10, Rows: 2}, MaxIterations: 6})
}

// TestClusterNumericRejectsNonFinite: a NaN or infinite coordinate must
// be rejected up front, naming its index, on the exact and the SimHash
// path alike, instead of returning a NaN cost and centroid.
func TestClusterNumericRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, params := range []*Params{nil, {Bands: 6, Rows: 3}} {
			pts, _, err := GenerateBlobs(BlobsConfig{Points: 200, Clusters: 5, Dim: 3, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			pts[17] = bad
			res, err := ClusterNumeric(pts, 3, Config{K: 5, Seed: 9, LSH: params})
			if err == nil {
				t.Fatalf("value %v, LSH %v: accepted (cost %v)", bad, params, res.Stats.Iterations[len(res.Stats.Iterations)-1].Cost)
			}
			if !strings.Contains(err.Error(), "value 17") {
				t.Fatalf("value %v, LSH %v: error %q does not name the offending index", bad, params, err)
			}
		}
	}
}

func TestClusterErrors(t *testing.T) {
	ds := syntheticDataset(t)
	if _, err := Cluster(ds, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Cluster(ds, Config{K: 5, LSH: &Params{Bands: 0, Rows: 1}}); err == nil {
		t.Fatal("expected error for invalid LSH params")
	}
}

func TestClusterNumeric(t *testing.T) {
	pts, labels, err := GenerateBlobs(BlobsConfig{Points: 200, Clusters: 5, Dim: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ClusterNumeric(pts, 3, Config{K: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.Name != "K-Means" {
		t.Fatalf("name = %q", exact.Stats.Name)
	}
	if len(exact.Centroids) != 15 {
		t.Fatalf("centroids length = %d", len(exact.Centroids))
	}
	sh, err := ClusterNumeric(pts, 3, Config{K: 5, Seed: 9, LSH: &Params{Bands: 6, Rows: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sh.Stats.Name, "SimHash-K-Means") {
		t.Fatalf("name = %q", sh.Stats.Name)
	}
	pe, err := Purity(exact.Assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Purity(sh.Assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ps < pe-0.15 {
		t.Fatalf("purity: simhash=%v exact=%v", ps, pe)
	}
}

func TestCSVRoundTripFacade(t *testing.T) {
	ds := syntheticDataset(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumItems() != ds.NumItems() {
		t.Fatal("round trip lost items")
	}
}

func TestTextPipelineFacade(t *testing.T) {
	corpus, err := GenerateCorpus(CorpusConfig{Topics: 8, QuestionsPerTopic: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scorer := NewScorer()
	byTopic := make([][]string, 8)
	for _, q := range corpus.Questions {
		byTopic[q.Topic] = append(byTopic[q.Topic], q.Tokens...)
	}
	for i, toks := range byTopic {
		scorer.AddTopic(corpus.TopicNames[i], toks)
	}
	vocab, err := scorer.SelectVocabulary(VocabConfig{Threshold: 0.3, Stopwords: DefaultStopwords()})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]Document, len(corpus.Questions))
	for i, q := range corpus.Questions {
		docs[i] = Document{Tokens: q.Tokens, Label: q.Topic}
	}
	ds, err := BuildBinaryDataset(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Cluster(ds, Config{K: 8, Seed: 1, LSH: &Params{Bands: 1, Rows: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Purity <= 0 || res.Stats.Purity > 1 {
		t.Fatalf("purity = %v", res.Stats.Purity)
	}
}

func TestTokenizeFacade(t *testing.T) {
	got := Tokenize("Does a Zoologist work in a zoo?")
	if strings.Join(got, " ") != "does a zoologist work in a zoo" {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestParamsHelpers(t *testing.T) {
	p, ok := SearchParams(0.3, 10, 0.9, 64, 8)
	if !ok || p.ClusterHitProb(0.3, 10) < 0.9 {
		t.Fatalf("SearchParams = %v, %v", p, ok)
	}
	if len(TableI()) == 0 || len(TableII()) == 0 {
		t.Fatal("probability tables empty")
	}
}

func TestWriteRunHelpers(t *testing.T) {
	ds := syntheticDataset(t)
	res, err := Cluster(ds, Config{K: 5, Seed: 1, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	var md, csv bytes.Buffer
	if err := WriteRunSummary(&md, []*Run{&res.Stats}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "K-Modes") {
		t.Fatalf("summary: %q", md.String())
	}
	if err := WriteRunCSV(&csv, []*Run{&res.Stats}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "run,iteration") {
		t.Fatalf("csv: %q", csv.String())
	}
}

func TestModelRoundTripFacade(t *testing.T) {
	ds := syntheticDataset(t)
	res, err := Cluster(ds, Config{K: 5, Seed: 1, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Predict(ds.Row(0))
	if c < 0 || c >= 5 {
		t.Fatalf("Predict = %d", c)
	}
}
