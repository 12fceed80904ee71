package lshcluster

import (
	"testing"
)

// FuzzClusterDifferential builds a random small categorical dataset
// and a random Config — workers, shards, update mode, tie-break, early
// abandoning, seeded or full-scan bootstrap, LSH on or off — and
// requires Cluster to equal the reference driver on the same space and
// options: assignment, per-pass moves, cost and convergence, and the
// work counters of every full pass.
func FuzzClusterDifferential(f *testing.F) {
	f.Add(uint16(200), uint8(10), uint8(12), int64(1), uint8(0), uint8(1), uint8(0), true, false)
	f.Add(uint16(150), uint8(7), uint8(8), int64(2), uint8(3), uint8(4), uint8(0xff), true, false)
	f.Add(uint16(90), uint8(20), uint8(16), int64(3), uint8(1), uint8(2), uint8(0x5a), false, true)
	f.Add(uint16(300), uint8(4), uint8(6), int64(4), uint8(2), uint8(3), uint8(0x0f), true, true)
	f.Fuzz(func(t *testing.T, nRaw uint16, kRaw, mRaw uint8, seed int64, workersRaw, shardsRaw, flags uint8, accelerated, wideBands bool) {
		n := 30 + int(nRaw)%270
		k := 2 + int(kRaw)%25
		ds, err := GenerateSynthetic(SyntheticConfig{
			Items: n, Clusters: k, Attrs: 4 + int(mRaw)%16, Domain: 120,
			MinRuleFrac: 0.5, MaxRuleFrac: 0.9, Seed: seed%1000 + 1,
		})
		if err != nil {
			t.Skip() // degenerate generator shape
		}
		cfg := Config{
			K:               k,
			Seed:            seed % 1000,
			MaxIterations:   8,
			Workers:         1 + int(workersRaw)%4,
			Shards:          1 + int(shardsRaw)%4,
			DeferredUpdates: flags&1 != 0,
			LowestIndexTies: flags&2 != 0,
			EarlyAbandon:    flags&4 != 0,
			SeededBootstrap: flags&8 != 0,
		}
		if accelerated {
			cfg.LSH = &Params{Bands: 2 + int(flags>>4)%7, Rows: 1 + int(flags>>4)%3}
			if wideBands {
				cfg.LSH.Bands += 10
			}
		}
		assertClusterMatchesReference(t, ds, cfg)
	})
}
