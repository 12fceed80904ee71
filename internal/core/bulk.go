package core

// BulkIndexer is an optional Accelerator capability: accelerators that
// can split index construction into a parallel signing pass and a
// parallel (or presigned-serial) filing pass implement it, and the
// driver then runs the bootstrap as an explicit sign → build → assign
// pipeline instead of the serial per-item Insert loop (see
// driver.bootstrap). Results are bit-identical either way — signing is
// deterministic per item and filing order is preserved — which the
// equivalence tests check against the per-item Insert loop of the
// reference driver (internal/reference).
//
// Call sequences the driver uses:
//
//   - Full-scan bootstrap: Reset, SignAll, BuildFrozen, then the
//     (parallel) exact first assignment. The index comes up already
//     frozen; the driver's later Freezer call is an idempotent no-op.
//   - Seeded bootstrap: Reset, SignAll, then the paper-faithful serial
//     query/insert interleave with each Insert replaced by
//     InsertPresigned — identical semantics (signing, not filing or
//     querying, is the expensive part), with the signing hoisted out
//     and parallelised. The index stays map-based until the driver's
//     Freezer call.
type BulkIndexer interface {
	// SignAll computes and retains the band keys of every item,
	// sharding the signing across workers goroutines (values < 2 sign
	// serially). Keys are identical to what per-item Insert signing
	// would produce, regardless of workers. Called once per Run, after
	// Reset and before BuildFrozen or any InsertPresigned. stop, when
	// non-nil, is polled periodically by the signing workers; once it
	// returns true they abandon the pass (the driver maps it to
	// context cancellation and discards the partial keys by aborting
	// the bootstrap).
	SignAll(workers int, stop func() bool) error
	// BuildFrozen constructs the accelerator's index directly in its
	// frozen layout from the keys SignAll computed, parallel across
	// workers, with every item inserted — equivalent to inserting items
	// 0…n−1 in ascending order and freezing.
	BuildFrozen(workers int) error
	// InsertPresigned files one item under the band keys SignAll
	// computed, on the streaming (map-based) builder — the seeded
	// bootstrap's interleaved insert with the signing already done.
	InsertPresigned(item int32) error
}
