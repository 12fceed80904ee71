package main

import (
	"fmt"
	"slices"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEndDefs are the metrics a user of the system sees, printed with
// tracing off. BENCHMARK.json lists the same names, units and bounds.
var endToEndDefs = []metricDef{
	{"solve_s", "s"},
	{"setup_s", "s"},
	{"iterate_s", "s"},
	{"purity", "fraction"},
	{"nearest_frac", "fraction"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
}

// perLayerDefs are the single-layer metrics, printed by the traced
// run. A layer that does not run on a workload reports 0.
var perLayerDefs = []metricDef{
	{"lsh.sign_s", "s"},
	{"lsh.sign_items_per_s", "1/s"},
	{"lsh.reorder_s", "s"},
	{"lsh.build_s", "s"},
	{"lsh.build_shard_max_s", "s"},
	{"lsh.foreign_slot_mb", "MiB"},
	{"lsh.query_s", "s"},
	{"lsh.avg_shortlist", "count"},
	{"lsh.shard_local_frac", "fraction"},
	{"lsh.cross_shard_merge_s", "s"},
	{"lsh.reverse_s", "s"},
	{"lsh.shortlist_recall", "fraction"},
	{"persist.open_s", "s"},
	{"persist.assign_restore_s", "s"},
	{"persist.mmap_mb", "MiB"},
	{"persist.save_s", "s"},
	{"persist.unreleased_mb", "MiB"},
	{"kmodes.exact_scan_s", "s"},
	{"kmodes.exact_scan_pairs", "count"},
	{"kmodes.engine_init_s", "s"},
	{"kmodes.distance_s", "s"},
	{"kmodes.comparisons", "count"},
	{"kmodes.apply_move_s", "s"},
	{"kmodes.finish_pass_s", "s"},
	{"core.passes", "count"},
	{"core.active_frac", "fraction"},
	{"core.moves", "count"},
	{"core.setup_untimed_s", "s"},
	{"kernel.mismatch_ops", "count"},
	{"kernel.bytes_computed", "bytes"},
	{"simhash.sign_s", "s"},
	{"kmeans.exact_scan_s", "s"},
	{"kmeans.engine_init_s", "s"},
	{"kmeans.distance_s", "s"},
	{"kmeans.comparisons", "count"},
	{"kmeans.apply_move_s", "s"},
	{"kmeans.finish_pass_s", "s"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.num_gc", "count"},
	{"trace.overhead_s", "s"},
	{"trace.coverage", "fraction"},
	{"trace.unattributed_frac", "fraction"},
	{"fail_frac", "fraction"},
}

// lowCoverage is the trace coverage below which a workload is flagged:
// its spans leave more than this share of the traced wall time
// unattributed to any layer.
const lowCoverage = 0.9

// withUnits turns computed values into metrics in defs order, filling
// 0 for any metric the workload does not produce. A computed name that
// defs does not declare is a bug in the benchmark.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("computed metric %q is not declared", name)
		}
	}
	return out, checkMetrics(out)
}

// endToEndValues are the end-to-end metrics over one run's untraced
// calls, which cycle through ins: each timing is the median over an
// input's calls, averaged over the inputs (a median of the pooled calls
// would fall in the gap between two inputs' timings and jump with
// noise); the quality is the mean over the inputs of each input's first
// call (every call on an input returns the same assignment); and
// peakRSS is the process's peak resident memory through the first call.
func endToEndValues(ins []instance, firsts, outs []*solveOut, peakRSS float64) map[string]float64 {
	perInput := func(f func(*solveOut) float64) float64 {
		mean := 0.0
		for j := range ins {
			var xs []float64
			for i := j; i < len(outs); i += len(ins) {
				xs = append(xs, f(outs[i]))
			}
			mean += median(xs) / float64(len(ins))
		}
		return mean
	}
	var purity, nearest float64
	for j, in := range ins {
		purity += firsts[j].purity / float64(len(ins))
		nearest += in.nearestFrac(firsts[j]) / float64(len(ins))
	}
	return map[string]float64{
		"solve_s":      perInput(func(o *solveOut) float64 { return o.solveS }),
		"setup_s":      perInput(func(o *solveOut) float64 { return o.setupS }),
		"iterate_s":    perInput(func(o *solveOut) float64 { return o.iterateS }),
		"purity":       purity,
		"nearest_frac": nearest,
		"alloc_mb":     perInput(func(o *solveOut) float64 { return o.allocMB }),
		"peak_rss_mb":  peakRSS,
	}
}

// tracedRun is one traced re-drive with its accounting.
type tracedRun struct {
	sum traceSummary
	rr  *redriveResult
}

// perLayerValues are the per-layer metrics: counters from the untraced
// call base, span times as the median over the traced re-drives.
func perLayerValues(in instance, base *solveOut, traced []tracedRun) map[string]float64 {
	med := func(f func(t tracedRun) float64) float64 {
		xs := make([]float64, len(traced))
		for i, t := range traced {
			xs[i] = f(t)
		}
		return median(xs)
	}
	self := func(span string) float64 {
		return med(func(t tracedRun) float64 { return t.sum.SelfS[span] })
	}
	cov := med(func(t tracedRun) float64 { return t.sum.Coverage })
	v := map[string]float64{
		"trace.overhead_s":        med(func(t tracedRun) float64 { return t.sum.WallS }) - base.solveS,
		"trace.coverage":          cov,
		"trace.unattributed_frac": 1 - cov,
		"runtime.gc_pause_s":      base.gcPauseS,
		"runtime.num_gc":          float64(base.numGC),
	}
	switch in := in.(type) {
	case *kmodesInstance:
		batchLayerValues(v, base, traced, "kmodes", "lsh", self, med)
		if sign := v["lsh.sign_s"]; sign > 0 {
			v["lsh.sign_items_per_s"] = float64(in.sc.items) / sign
		}
		ops := float64(traced[0].rr.scanPairs) * float64(in.sc.attrs)
		v["kernel.mismatch_ops"] = ops
		v["kernel.bytes_computed"] = ops * 8 // a 4-byte value of the row and of the mode per test
		if in.indexDir != "" {
			v["persist.open_s"] = self("persist.open")
			v["persist.assign_restore_s"] = self("persist.assign_restore")
			v["persist.mmap_mb"] = float64(base.stats.MmapBytes) / (1 << 20)
			v["persist.save_s"] = in.primeSaveS
			v["persist.unreleased_mb"] = base.unreleasedMB
		}
	case *kmeansInstance:
		batchLayerValues(v, base, traced, "kmeans", "simhash", self, med)
	}
	return v
}

// batchLayerValues fills the metrics every batch workload shares.
func batchLayerValues(v map[string]float64, base *solveOut, traced []tracedRun, space, sign string,
	self func(string) float64, med func(func(tracedRun) float64) float64) {
	st := base.stats
	var moves int
	var active, cands, comps int64
	for _, it := range st.Iterations {
		moves += it.Moves
		active += int64(it.ActiveItems)
		cands += it.CandidatesTotal
		comps += it.Comparisons
	}
	n := int64(len(base.assign))
	v["core.passes"] = float64(len(st.Iterations))
	v["core.moves"] = float64(moves)
	v["core.active_frac"] = float64(active) / float64(n*int64(len(st.Iterations)))
	v["core.setup_untimed_s"] = (st.Bootstrap - st.BootstrapSign - st.BootstrapBuild - st.BootstrapAssign).Seconds()
	v["lsh.avg_shortlist"] = float64(cands) / float64(active)
	// A single shard serves every candidate itself.
	v["lsh.shard_local_frac"] = 1
	if st.Shards > 1 {
		v["lsh.shard_local_frac"] = st.ShardLocalFrac()
	}
	v["lsh.cross_shard_merge_s"] = st.CrossShardMerge.Seconds()
	v["lsh.foreign_slot_mb"] = float64(st.ForeignSlotBytes) / (1 << 20)
	v["lsh.shortlist_recall"] = traced[0].rr.recall
	v["lsh.query_s"] = self("lsh.query")
	v["lsh.reverse_s"] = self("lsh.reverse")
	reorder := func(t tracedRun) float64 { return t.rr.stats.ReorderTime.Seconds() }
	v["lsh.reorder_s"] = med(reorder)
	v["lsh.build_s"] = med(func(t tracedRun) float64 { return t.sum.SelfS["lsh.build"] - reorder(t) })
	v["lsh.build_shard_max_s"] = med(func(t tracedRun) float64 {
		if len(t.rr.stats.BootstrapBuildShards) == 0 {
			return 0
		}
		return slices.Max(t.rr.stats.BootstrapBuildShards).Seconds()
	})
	v[sign+".sign_s"] = self(sign + ".sign")
	v[space+".exact_scan_s"] = self(space + ".exact_scan")
	v[space+".engine_init_s"] = self(space + ".engine_init")
	v[space+".distance_s"] = self(space + ".distance")
	v[space+".apply_move_s"] = self(space + ".apply_move")
	v[space+".finish_pass_s"] = self(space + ".finish_pass")
	v[space+".comparisons"] = float64(comps)
	if space == "kmodes" {
		v["kmodes.exact_scan_pairs"] = float64(traced[0].rr.scanPairs)
	}
}
