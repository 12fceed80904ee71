package core

import (
	"context"
	"fmt"
	"time"

	"lshcluster/internal/lsh"
	"lshcluster/internal/lsh/serve"
)

// Sharding capabilities. The LSH index layer can partition its hash
// tables by item into S independent shards (lsh.Sharded): shards build
// in parallel from disjoint slices of the signing arena, stay
// individually cache-resident, and are independently freezable — the
// groundwork for serving tens of millions of items, where a future
// layout places shards on separate machines. Queries fan out across
// shards and merge the shard-local shortlists back into the exact
// candidate stream a single index would produce, so sharding never
// changes results: Options.Shards = 1 (the default) IS the unsharded
// oracle, and every shard count is bit-identical to it (pinned by the
// shard-invariance equivalence tests).

// ShardedIndexer is an optional Accelerator capability: accelerators
// whose index supports item partitioning implement it. The driver
// calls SetShards once per Run, before Reset, with max(1,
// Options.Shards); Reset then builds the index with that many shards.
// Accelerators without the capability simply ignore Options.Shards.
type ShardedIndexer interface {
	// SetShards configures the shard count for the next Reset. Values
	// < 2 select the single-shard oracle. Implementations may clamp
	// (e.g. to the item count).
	SetShards(shards int)
}

// UnindexedQuerier is an optional Accelerator capability: produce the
// candidate-cluster shortlist of an item that has *not yet been
// inserted*, by signing the item (or reusing its presigned band keys)
// and probing the growing index. The seeded bootstrap uses it so every
// non-seed item actually consults the index built so far — the
// behaviour the mode describes — instead of the always-empty shortlist
// a Querier.Candidates call on an un-inserted item yields. The result
// follows Querier.Candidates semantics (deduplicated, assignment
// entries < 0 skipped, valid until the next call); the per-item Insert
// path (the reference driver's) and the presigned pipeline must
// produce identical shortlists, which the bootstrap equivalence tests
// enforce.
type UnindexedQuerier interface {
	CandidatesUnindexed(item int32, assign []int32) []int32
}

// ForeignSlotConfigurer is an optional Accelerator capability:
// accelerators whose sharded index can materialise the cross-shard
// foreign-slot arrays (lsh.Sharded.MaterializeForeignSlots) implement
// it. The driver forwards Options.ForeignSlotBudget once per Run,
// before Reset; the index materialises after its frozen layout is
// built, falling back to the key-probe fan-out over budget (a budget
// of 1 byte therefore pins the probe path). Accelerators without the
// capability simply keep probing.
type ForeignSlotConfigurer interface {
	// SetForeignSlots configures foreign-slot materialisation for the
	// next Reset: budget is the byte cap (0 = lsh.
	// DefaultForeignSlotBudget, negative = unlimited).
	SetForeignSlots(budget int64)
}

// ReorderConfigurer is an optional Accelerator capability:
// accelerators whose sharded index supports the locality-preserving
// item reordering (lsh.Sharded.SetReorder) implement it. The driver
// forwards Options.DisableReorder once per Run, before Reset; the
// index derives and applies the permutation during its bulk frozen
// build. Accelerators without the capability simply build in original
// order.
type ReorderConfigurer interface {
	// SetReorder configures locality reordering for the next Reset:
	// disable pins the original-order oracle.
	SetReorder(disable bool)
}

// ReorderMapper is an optional Accelerator capability: expose the
// locality permutation the index applied during its frozen build
// (perm[original] = internal, inv[internal] = original), or nil/nil
// when the build ran in original order. The driver uses it to keep an
// internal-ID mirror of the assignment slice so shortlist sweeps read
// assignments in near-sequential order.
type ReorderMapper interface {
	ReorderMap() (perm, inv []int32)
}

// ShardStats is the post-run shard report of a ShardStatsReporter.
type ShardStats struct {
	// Shards is the shard count of the index (0 when none was built).
	Shards int
	// BuildTimes holds the per-shard frozen-build wall times (nil when
	// the index never froze).
	BuildTimes []time.Duration
	// ReorderTime is the wall time the locality-reordering stage spent
	// deriving and applying the permutation (zero when reordering was
	// disabled or inapplicable).
	ReorderTime time.Duration
	// LocalCands/ForeignCands count shortlist candidates by origin:
	// served by the queried item's owning shard versus fanned out from
	// the other shards. Their ratio (runstats' shard_local_frac) is the
	// locality measure reordering exists to raise. Counted only on
	// multi-shard range partitions — zero at S=1 and on stride layouts.
	LocalCands, ForeignCands int64
	// CrossShardMerge is the cumulative time spent in cross-shard
	// candidate sweeps (zero with one shard).
	CrossShardMerge time.Duration
	// ForeignSlotBytes is the memory the materialised fan-out arrays
	// occupy; 0 means the key-probe path served every query.
	ForeignSlotBytes int64
	// ProbeOps/DirectOps count cross-shard bucket resolutions by path:
	// key-table probes versus direct foreign-slot loads.
	ProbeOps, DirectOps int64
	// Retries/Timeouts/HedgedCalls/HedgeWins/SkippedShards mirror the
	// fault-tolerant fan-out's lsh.ResilienceStats — all zero unless a
	// backend layer was attached (Options.ChaosSpec).
	Retries, Timeouts      int64
	HedgedCalls, HedgeWins int64
	SkippedShards          int
	// SaveTime/LoadTime are the wall times spent persisting the frozen
	// index to disk and warm-loading it back (zero when persistence was
	// off, and SaveTime stays zero on warm runs — nothing to save).
	SaveTime, LoadTime time.Duration
	// WarmStart reports whether the index was loaded from disk instead
	// of built.
	WarmStart bool
	// MmapBytes is the total size of the index's live memory mappings
	// (zero on heap loads and fresh builds).
	MmapBytes int64
	// ResidentShards/Promotions/Demotions mirror the residency manager
	// (Options.ShardMemoryBudget): shards currently advised in, and the
	// cumulative demote/promote transitions. All zero without a budget.
	ResidentShards        int
	Promotions, Demotions int64
}

// ResilienceConfig is the fault-tolerance configuration the driver
// forwards to a ResilienceConfigurer before Reset: the run context
// (per-call deadlines and cancellation derive from it), the retry and
// hedging policy knobs, and the chaos spec that — when non-empty —
// routes the cross-shard fan-out through fault-injecting backends.
type ResilienceConfig struct {
	// ChaosSpec is the serve.ParseChaosSpec fault script. Empty keeps
	// the direct in-memory fan-out (no backend layer at all); a
	// non-empty spec — even one injecting zero faults, e.g. "seed=1" —
	// attaches chaos-wrapped backends, which is also how the
	// bit-identity tests exercise the whole resilient path.
	ChaosSpec string
	// RetryBudget/HedgeAfter/DisableHedging map onto lsh.Policy.
	RetryBudget    int
	HedgeAfter     time.Duration
	DisableHedging bool
	// Context bounds every backend call (nil = context.Background()).
	Context context.Context
}

// ResilienceConfigurer is an optional Accelerator capability:
// accelerators whose sharded index supports the fault-tolerant backend
// fan-out implement it. The driver forwards the resilience options
// once per Run, before Reset; the index attaches the backends once its
// frozen layout exists.
type ResilienceConfigurer interface {
	SetResilience(cfg ResilienceConfig)
}

// ShardStatsReporter is an optional Accelerator capability: report the
// index's shard layout and per-shard construction cost after a run, so
// runstats can record the bootstrap-build breakdown, the cross-shard
// merge overhead and the fan-out mode (Run.Shards,
// Run.BootstrapBuildShards, Run.CrossShardMerge, Run.ForeignSlotBytes,
// Run.CrossShardProbes/CrossShardDirect).
type ShardStatsReporter interface {
	ShardStats() ShardStats
}

// ShardedIndexBase is the sharded-index state machine shared by the
// accelerators built on lsh.Sharded (MinHash here, SimHash in
// internal/simhash): one index plus the presigned-arena lifecycle
// behind the BulkIndexer, Freezer, ReverseQuerier, ShardedIndexer,
// UnindexedQuerier and ShardStatsReporter capabilities. Embedding it
// promotes everything signing-agnostic — SetShards, ShardStats,
// Params, Index, BuildFrozen, InsertPresigned, Freeze, NewQuerier,
// NewReverse — so the arena lifecycle lives in exactly one place; the
// embedding accelerator supplies only what varies, the signing: the
// parallel worker factory (SignAllInto) and the serial single-item
// signer (CandidatesUnindexedWith).
type ShardedIndexBase struct {
	params lsh.Params
	index  *lsh.Sharded
	n      int
	k      int
	shards int
	// selfQ serves CandidatesUnindexedWith (the seeded bootstrap's
	// query-before-insert); created lazily, serial use only.
	selfQ *IndexQuerier
	// presigned is the flat band-key arena SignAllInto computed
	// (keys[item·Bands+band]); nil until then, released to the index by
	// BuildFrozen and at Freeze.
	presigned []uint64
	// foreignBudget holds the foreign-slot budget the driver forwarded
	// (ForeignSlotConfigurer); materialisation runs once the frozen
	// layout exists (BuildFrozen / Freeze).
	foreignBudget int64
	// reorderOff holds the locality-reordering configuration the driver
	// forwarded (ReorderConfigurer); applied at the next ResetIndex.
	reorderOff bool
	// resCfg/resSpec/resErr hold the resilience configuration the
	// driver forwarded (ResilienceConfigurer): the parsed chaos spec
	// (nil when no spec, i.e. the direct fan-out), or the parse error
	// surfaced at the next ResetIndex.
	resCfg  ResilienceConfig
	resSpec *serve.ChaosSpec
	resErr  error
	// persistCfg/persistOn hold the persistence configuration the driver
	// forwarded (IndexPersister); fpSource supplies the dataset
	// fingerprint the saved index is pinned to (set once by the
	// embedding accelerator via SetFingerprintSource — accelerators
	// without one cannot persist). seed is retained from ResetIndex for
	// the save; warm/saveDur/loadDur describe what the last
	// ResetIndex/BuildFrozen did, for ShardStats.
	persistCfg PersistConfig
	persistOn  bool
	fpSource   func() uint64
	seed       uint64
	warm       bool
	saveDur    time.Duration
	loadDur    time.Duration
}

// SetShards configures the item-shard count for the next ResetIndex
// (core.ShardedIndexer). Values < 2 select the single-shard oracle.
func (b *ShardedIndexBase) SetShards(shards int) {
	if shards < 1 {
		shards = 1
	}
	b.shards = shards
}

// SetForeignSlots configures cross-shard foreign-slot materialisation
// (core.ForeignSlotConfigurer): budget in bytes (0 = lsh.
// DefaultForeignSlotBudget, negative = unlimited).
func (b *ShardedIndexBase) SetForeignSlots(budget int64) {
	b.foreignBudget = budget
}

// materializeForeign builds the cross-shard fan-out arrays once the
// frozen layout exists, under the configured budget; inside the index
// a no-op for single-shard, stride or over-budget layouts.
func (b *ShardedIndexBase) materializeForeign() {
	if b.index == nil {
		return
	}
	budget := b.foreignBudget
	if budget == 0 {
		budget = lsh.DefaultForeignSlotBudget
	}
	b.index.MaterializeForeignSlots(budget)
}

// SetReorder stores the locality-reordering configuration for the
// next ResetIndex (core.ReorderConfigurer): disable pins the
// original-order oracle.
func (b *ShardedIndexBase) SetReorder(disable bool) {
	b.reorderOff = disable
}

// ReorderMap exposes the locality permutation of the current index
// (core.ReorderMapper): nil/nil before Reset or when the build ran in
// original order.
func (b *ShardedIndexBase) ReorderMap() (perm, inv []int32) {
	if b.index == nil {
		return nil, nil
	}
	return b.index.ReorderMap()
}

// SetResilience stores the fault-tolerance configuration for the next
// ResetIndex (core.ResilienceConfigurer). An unparsable ChaosSpec is
// surfaced as the next ResetIndex's error.
func (b *ShardedIndexBase) SetResilience(cfg ResilienceConfig) {
	b.resCfg = cfg
	b.resSpec, b.resErr = nil, nil
	if cfg.ChaosSpec == "" {
		return
	}
	spec, err := serve.ParseChaosSpec(cfg.ChaosSpec)
	if err != nil {
		b.resErr = err
		return
	}
	b.resSpec = spec
}

// SetPersist stores the index-persistence configuration for the next
// ResetIndex (core.IndexPersister). An empty Dir disables persistence.
func (b *ShardedIndexBase) SetPersist(cfg PersistConfig) {
	b.persistCfg = cfg
	b.persistOn = cfg.Dir != ""
}

// SetFingerprintSource registers the dataset-fingerprint supplier the
// persisted index is validated against. Embedding accelerators whose
// dataset can be fingerprinted call it once at construction;
// persistence on an accelerator without a source is a ResetIndex error.
func (b *ShardedIndexBase) SetFingerprintSource(fp func() uint64) {
	b.fpSource = fp
}

// WarmLoaded reports whether the last ResetIndex loaded the index from
// disk instead of preparing a fresh build (core.IndexPersister).
func (b *ShardedIndexBase) WarmLoaded() bool { return b.warm }

// attachResilience routes the index's cross-shard fan-out through
// chaos-wrapped backends once the frozen layout exists. Primaries and
// hedge mirrors are independent replicas under the same fault spec
// (different injection streams, same fault model — a dead shard stays
// dead on its mirror, so permanent failures remain measured recall
// loss instead of being masked). A no-op without a chaos spec: the
// zero-overhead direct fan-out stays in place.
func (b *ShardedIndexBase) attachResilience() {
	if b.resSpec == nil || b.index == nil {
		return
	}
	locals := b.index.LocalBackends()
	backends := b.resSpec.Wrap(locals, 0)
	mirrors := b.resSpec.Wrap(locals, 1)
	pol := lsh.Policy{
		RetryBudget:    b.resCfg.RetryBudget,
		HedgeAfter:     b.resCfg.HedgeAfter,
		DisableHedging: b.resCfg.DisableHedging,
		Seed:           b.resSpec.Seed() + 1,
	}
	// AttachBackends only errors on a shard-count mismatch, impossible
	// for backends derived from the index itself.
	_ = b.index.AttachBackends(b.resCfg.Context, backends, mirrors, pol)
}

// ShardStats reports the shard layout, per-shard build costs and
// cross-shard fan-out mode of the current index
// (core.ShardStatsReporter).
func (b *ShardedIndexBase) ShardStats() ShardStats {
	if b.index == nil {
		return ShardStats{}
	}
	probes, direct := b.index.FanOutOps()
	local, foreign := b.index.FanOutLocality()
	res := b.index.ResilienceStats()
	ss := ShardStats{
		Shards:           b.index.NumShards(),
		BuildTimes:       b.index.BuildTimes(),
		ReorderTime:      b.index.ReorderTime(),
		LocalCands:       local,
		ForeignCands:     foreign,
		CrossShardMerge:  b.index.MergeTime(),
		ForeignSlotBytes: b.index.ForeignSlotBytes(),
		ProbeOps:         probes,
		DirectOps:        direct,
		Retries:          res.Retries,
		Timeouts:         res.Timeouts,
		HedgedCalls:      res.HedgedCalls,
		HedgeWins:        res.HedgeWins,
		SkippedShards:    res.SkippedShards,
		SaveTime:         b.saveDur,
		LoadTime:         b.loadDur,
		WarmStart:        b.warm,
		MmapBytes:        b.index.MmapBytes(),
	}
	if resident, prom, dem, ok := b.index.ResidencyStats(); ok {
		ss.ResidentShards, ss.Promotions, ss.Demotions = resident, prom, dem
	}
	return ss
}

// Params returns the banding configuration.
func (b *ShardedIndexBase) Params() lsh.Params { return b.params }

// Index exposes the underlying sharded LSH index (nil before the
// accelerator's Reset), e.g. for bucket-occupancy diagnostics.
func (b *ShardedIndexBase) Index() *lsh.Sharded { return b.index }

// ResetIndex discards any previous index and prepares a fresh one over
// numItems items and numClusters clusters, with the configured shard
// count. Called by the embedding accelerator's Reset.
func (b *ShardedIndexBase) ResetIndex(params lsh.Params, seed uint64, numItems, numClusters int) error {
	if numClusters < 1 {
		return fmt.Errorf("core: numClusters must be ≥ 1, got %d", numClusters)
	}
	if b.resErr != nil {
		return fmt.Errorf("core: invalid chaos spec: %w", b.resErr)
	}
	shards := b.shards
	if shards < 1 {
		shards = 1
	}
	_ = b.Close()
	b.warm = false
	b.saveDur, b.loadDur = 0, 0
	// Locality reordering is incompatible with the backend fan-out
	// (replay merges assume identity item order), so a chaos spec pins
	// the original-order build regardless of DisableReorder.
	reorder := !b.reorderOff && b.resSpec == nil
	if b.persistOn && b.fpSource == nil {
		return fmt.Errorf("core: index persistence requires a dataset fingerprint, which this accelerator does not provide")
	}
	if b.persistOn && lsh.IndexSaved(b.persistCfg.Dir) {
		// Warm start: load the saved frozen index instead of building.
		// The manifest pins parameters, seed, shape, shard count, dataset
		// fingerprint and reorder setting; any mismatch is a hard error —
		// a stale index must never silently serve or silently rebuild.
		ix, rep, err := lsh.OpenSharded(b.persistCfg.Dir, lsh.OpenOptions{
			Params:        params,
			Seed:          seed,
			NumItems:      numItems,
			Shards:        shards,
			Reorder:       reorder && numItems >= 2,
			Fingerprint:   b.fpSource(),
			Mmap:          mmapWanted(b.persistCfg.DisableMmap),
			MemoryBudget:  b.persistCfg.MemoryBudget,
			ForeignBudget: b.foreignBudget,
			Workers:       b.persistCfg.Workers,
		})
		if err != nil {
			return fmt.Errorf("core: loading persisted index: %w", err)
		}
		b.params = params
		b.index = ix
		b.n = numItems
		b.k = numClusters
		b.seed = seed
		b.selfQ = nil
		b.presigned = nil
		b.warm = true
		b.loadDur = rep.Duration
		b.attachResilience()
		return nil
	}
	ix, err := lsh.NewSharded(params, seed, numItems, shards)
	if err != nil {
		return err
	}
	ix.SetReorder(reorder)
	b.params = params
	b.index = ix
	b.n = numItems
	b.k = numClusters
	b.seed = seed
	b.selfQ = nil
	b.presigned = nil
	return nil
}

// Close releases the current index's memory mappings (a no-op for
// heap-built indexes) and drops the index; the next ResetIndex builds
// or loads a fresh one. Call it once the run using the index has
// returned — no query may be in flight.
func (b *ShardedIndexBase) Close() error {
	if b.index == nil {
		return nil
	}
	err := b.index.ClosePersist()
	b.index = nil
	return err
}

// SignAllInto computes every item's band keys into the presigned
// arena, sharding the signing across workers goroutines with the
// accelerator-supplied per-worker signer factory (the signing half of
// core.BulkIndexer.SignAll).
func (b *ShardedIndexBase) SignAllInto(workers int, newSigner func() lsh.SignFunc, stop func() bool) error {
	if b.index == nil {
		return fmt.Errorf("core: SignAll before Reset")
	}
	b.presigned = lsh.SignAll(b.params, b.n, workers, newSigner, stop)
	return nil
}

// BuildFrozen constructs every shard's frozen layout directly from the
// presigned keys — shards concurrent, bands parallel within each shard
// (core.BulkIndexer).
func (b *ShardedIndexBase) BuildFrozen(workers int) error {
	if b.presigned == nil {
		return fmt.Errorf("core: BuildFrozen before SignAll")
	}
	err := b.index.BuildFrozen(b.presigned, b.n, workers)
	b.presigned = nil
	if err == nil {
		b.materializeForeign()
		b.attachResilience()
		if b.persistOn && !b.warm {
			rep, serr := b.index.Save(b.persistCfg.Dir, b.seed, b.fpSource(), workers)
			if serr != nil {
				return fmt.Errorf("core: saving index: %w", serr)
			}
			b.saveDur = rep.Duration
		}
	}
	return err
}

// InsertPresigned files one item under its presigned band keys in its
// owning shard's map-based builder (core.BulkIndexer).
func (b *ShardedIndexBase) InsertPresigned(item int32) error {
	if b.presigned == nil {
		return fmt.Errorf("core: InsertPresigned before SignAll")
	}
	bands := b.params.Bands
	return b.index.InsertKeys(item, b.presigned[int(item)*bands:(int(item)+1)*bands])
}

// CandidatesUnindexedWith returns the candidate-cluster shortlist of a
// not-yet-indexed item: by its presigned band keys when SignAllInto
// ran, otherwise by the signature signNow produces on the spot (after
// per-item Insert, as the reference driver bootstraps) — identical
// keys either way, so the two
// paths stay bit-identical. Serial use only (shares dedup scratch);
// the embedding accelerator wraps it as CandidatesUnindexed with its
// own signer.
func (b *ShardedIndexBase) CandidatesUnindexedWith(item int32, assign []int32, signNow func(item int32) []uint64) []int32 {
	if b.index == nil {
		return nil
	}
	if b.selfQ == nil {
		b.selfQ = NewIndexQuerier(b.index, b.k)
	}
	if b.presigned != nil {
		bands := b.params.Bands
		return b.selfQ.CandidatesOfKeys(b.presigned[int(item)*bands:(int(item)+1)*bands], assign)
	}
	return b.selfQ.CandidatesOfSignature(signNow(item), assign)
}

// Freeze compacts every shard for the iteration phase (core.Freezer).
// It also releases the presigned key arena: after the seeded
// bootstrap's interleave every key has been filed into the index, so
// retaining the arena through the iterations would only duplicate it.
func (b *ShardedIndexBase) Freeze() {
	if b.index != nil {
		b.index.Freeze()
		b.materializeForeign()
		b.attachResilience()
	}
	b.presigned = nil
}

// NewQuerier returns a query handle with its own deduplication scratch.
func (b *ShardedIndexBase) NewQuerier() Querier {
	return NewIndexQuerier(b.index, b.k)
}

// NewReverse returns a reverse-collision view spanning every shard of
// the frozen index (core.ReverseQuerier), or nil before Reset or
// before the index is frozen — the driver then simply runs without
// active-set filtering.
func (b *ShardedIndexBase) NewReverse() ReverseView {
	if b.index == nil {
		return nil
	}
	if r := b.index.NewReverse(); r != nil {
		return r
	}
	return nil
}
