package core

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"unsafe"

	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/runstats"
)

// Index persistence and resumable runs. With Options.IndexDir set, the
// bootstrap's expensive artifacts become durable: the frozen LSH index
// is saved after its first build (internal/lsh persist format) and
// warm-started on the next run — memory-mapped zero-copy by default,
// heap-copied under Options.DisableMmap — and the exact first
// assignment is saved alongside it, so a warm run skips signing, index
// construction AND the full first scan. Everything is
// validate-or-reject: the index manifest pins seed, dataset
// fingerprint, shape, shard count and reorder setting (drift is a hard
// error, never a silent rebuild from stale state), and the restored
// bootstrap assignment is spot-checked by recomputing a sample of items
// exactly (drift falls back to a full rescan that overwrites the stale
// file). Options.SnapshotEvery additionally checkpoints the run state
// every few iterations, so an interrupted long run resumes from its
// last checkpoint instead of iteration 1. Warm and cold runs are
// bit-identical — same assignment, same moves — which the persistence
// equivalence tests pin at the facade level with DisableMmap as the
// plumbed heap-vs-mmap oracle toggle.

// PersistConfig is the index-persistence configuration the driver
// forwards to an IndexPersister accelerator once per Run, before Reset.
type PersistConfig struct {
	// Dir is the index directory (empty disables persistence).
	Dir string
	// DisableMmap selects the heap-copy load path instead of the
	// zero-copy memory mapping (the portable oracle; data is
	// byte-identical either way). Mapping is also skipped on platforms
	// without mmap support.
	DisableMmap bool
	// MemoryBudget, when > 0, caps the resident bytes of a mapped index
	// via the shard residency manager (whole shards demote and promote;
	// a non-resident shard is slow, never absent).
	MemoryBudget int64
	// Workers bounds the parallel per-shard file IO.
	Workers int
}

// IndexPersister is an optional Accelerator capability: accelerators
// whose index supports the versioned on-disk shard format implement it.
// The driver forwards the persistence options once per Run, before
// Reset; Reset then warm-starts from the saved index when the directory
// holds one (stale ⇒ error), or builds cold and saves after the frozen
// build. WarmLoaded reports which path Reset took, so the driver can
// skip the signing and build phases on a warm start.
type IndexPersister interface {
	SetPersist(cfg PersistConfig)
	WarmLoaded() bool
}

// bootstrapAssignFile holds the exact first assignment inside the index
// directory; runStateFile holds the iteration checkpoint.
const (
	bootstrapAssignFile = "bootstrap-assign.bin"
	runStateFile        = "state.snap"
)

// Bootstrap-assignment section IDs (persist container).
const (
	secAssignHeader persist.SectionID = 1 // []int64{n, k}
	secAssignment   persist.SectionID = 2 // []int32 assignment
)

// assignSampleSize is how many items a restored bootstrap assignment is
// spot-checked on (recomputed exactly): the first assignSampleSize
// items plus assignSampleSize evenly spaced ones. Centroid or dataset
// drift that survives a 128-item exact recompute and the index
// manifest's fingerprint check is out of scope.
const assignSampleSize = 64

// rawI32 reinterprets an int32 slice as raw bytes for section writing.
func rawI32(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func rawI64(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// bootstrapAssign runs the exact first assignment, restoring it from
// the index directory when a valid saved copy exists and saving it
// there after a fresh scan. Restore is validate-or-rescan: shape must
// match and a sample of items must recompute to the stored values;
// any mismatch discards the file and rescans (the fresh result then
// overwrites it).
func (d *driver) bootstrapAssign(workers int) error {
	if d.opts.IndexDir == "" {
		d.bootstrapScan(workers)
		return ctxErr(d.opts.Context)
	}
	path := filepath.Join(d.opts.IndexDir, bootstrapAssignFile)
	if d.restoreBootstrapAssign(path) {
		return nil
	}
	d.bootstrapScan(workers)
	if err := ctxErr(d.opts.Context); err != nil {
		return err
	}
	return d.saveBootstrapAssign(path)
}

func (d *driver) saveBootstrapAssign(path string) error {
	sections := []persist.Section{
		{ID: secAssignHeader, ElemSize: 8, Data: rawI64([]int64{int64(d.n), int64(d.k)})},
		{ID: secAssignment, ElemSize: 4, Data: rawI32(d.assign)},
	}
	if err := persist.WriteFile(path, sections); err != nil {
		return fmt.Errorf("core: saving bootstrap assignment: %w", err)
	}
	return nil
}

// restoreBootstrapAssign loads the saved first assignment; false means
// no usable file (missing, corrupt, wrong shape, or failed the sample
// recompute) and the caller must rescan.
func (d *driver) restoreBootstrapAssign(path string) bool {
	f, err := persist.Open(path, false)
	if err != nil {
		return false
	}
	defer f.Close()
	hdr, err := persist.View[int64](f, secAssignHeader)
	if err != nil || len(hdr) != 2 || int(hdr[0]) != d.n || int(hdr[1]) != d.k {
		return false
	}
	saved, err := persist.View[int32](f, secAssignment)
	if err != nil || len(saved) != d.n {
		return false
	}
	for _, c := range saved {
		if c < 0 || int(c) >= d.k {
			return false
		}
	}
	// Spot-check: the bootstrap assignment is a pure function of the
	// space's initial centroids, so recomputing a sample exactly detects
	// a stale file (different space seed, edited data).
	scratch := d.beginExactScan()
	check := func(i int) bool { return d.nearestExact(i, scratch) == int(saved[i]) }
	for i := 0; i < d.n && i < assignSampleSize; i++ {
		if !check(i) {
			return false
		}
	}
	if stride := d.n / assignSampleSize; stride > 1 {
		for i := 0; i < d.n; i += stride {
			if !check(i) {
				return false
			}
		}
	}
	copy(d.assign, saved)
	return true
}

// runState is the gob-encoded iteration checkpoint of a resumable run.
type runState struct {
	N, K       int
	NextIter   int
	Assign     []int32
	Iterations []runstats.Iteration
}

// saveRunState checkpoints the run after an iteration (atomic: temp +
// rename, 0644).
func (d *driver) saveRunState(path string, nextIter int, iters []runstats.Iteration) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: saving run state: %w", err)
	}
	st := runState{N: d.n, K: d.k, NextIter: nextIter, Assign: d.assign, Iterations: iters}
	if err := gob.NewEncoder(tmp).Encode(&st); err == nil {
		err = tmp.Chmod(0o644)
		if err == nil {
			err = tmp.Close()
		}
		if err == nil {
			err = os.Rename(tmp.Name(), path)
		}
		if err == nil {
			return nil
		}
	} else {
		tmp.Close()
	}
	os.Remove(tmp.Name())
	return fmt.Errorf("core: saving run state to %s", path)
}

// restoreRunState loads an iteration checkpoint, overwriting the
// driver's assignment (and its internal-ID mirror) and returning the
// iteration to resume from plus the already-completed iteration stats.
// A missing file returns 0 (start from iteration 1); a checkpoint for a
// different run shape is an error — stale state is rejected, never
// silently reinterpreted.
func (d *driver) restoreRunState(path string) (int, []runstats.Iteration, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, nil
		}
		return 0, nil, fmt.Errorf("core: reading run state: %w", err)
	}
	defer f.Close()
	var st runState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return 0, nil, fmt.Errorf("core: decoding run state %s: %w", path, err)
	}
	if st.N != d.n || st.K != d.k || len(st.Assign) != d.n || st.NextIter < 1 {
		return 0, nil, fmt.Errorf("core: run state %s was saved for n=%d k=%d, run has n=%d k=%d", path, st.N, st.K, d.n, d.k)
	}
	for _, c := range st.Assign {
		if c < 0 || int(c) >= d.k {
			return 0, nil, fmt.Errorf("core: run state %s holds an out-of-range cluster", path)
		}
	}
	copy(d.assign, st.Assign)
	if d.perm != nil {
		for i, c := range d.assign {
			d.assignInt[d.perm[i]] = c
		}
	}
	return st.NextIter, st.Iterations, nil
}

// validatePersistOptions rejects option combinations index persistence
// cannot serve, before any index work happens.
func validatePersistOptions(opts *Options) error {
	if opts.SnapshotEvery < 0 {
		return fmt.Errorf("core: SnapshotEvery must be ≥ 0, got %d", opts.SnapshotEvery)
	}
	if opts.SnapshotEvery > 0 && opts.IndexDir == "" {
		return fmt.Errorf("core: SnapshotEvery requires IndexDir (the checkpoint lives in the index directory)")
	}
	if opts.IndexDir == "" {
		return nil
	}
	if opts.Accelerator == nil {
		return fmt.Errorf("core: IndexDir requires an accelerator (the exact algorithm builds no index)")
	}
	if _, ok := opts.Accelerator.(IndexPersister); !ok {
		return fmt.Errorf("core: the accelerator does not support index persistence")
	}
	if opts.Bootstrap == BootstrapSeeded {
		return fmt.Errorf("core: IndexDir is incompatible with BootstrapSeeded (the seeded query-before-insert interleave cannot be warm-started)")
	}
	if _, ok := opts.Accelerator.(BulkIndexer); !ok {
		return fmt.Errorf("core: IndexDir requires a bulk-indexing accelerator")
	}
	return nil
}

// mmapWanted resolves the effective load mode: mapping needs platform
// support and must not be disabled.
func mmapWanted(disable bool) bool { return !disable && persist.MmapSupported }
