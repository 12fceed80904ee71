// Command perfbench is the repository's benchmark. It generates one
// workload's inputs from a seed, runs them through the public facade
// (lshcluster.Cluster and ClusterNumeric) for a
// fixed measuring time, checks the outputs, and prints the metrics as
// JSON on its last line of output.
//
//	perfbench --workload kmodes-cold --seed 1 --seconds 35 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// runs the untraced call once, then re-drives the same clustering with
// a span around each layer call (see redrive.go) and prints the
// per-layer metrics, the tracing overhead and the trace coverage. The
// line before the result is a report: the machine, the workload's
// sizes, every check that failed and, when traced, the span totals.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// minCallsPerInput is the fewest measured calls a run makes on each of
// its inputs, however short its measuring time: two, so the same-input
// determinism check always has a pair to compare.
const minCallsPerInput = 2

// inputsPerRun is how many independently generated inputs an untraced
// run cycles through. Pass counts to convergence differ from input to
// input, so a mean over several inputs is steadier than one input's;
// workloads whose calls take a few seconds, or whose set-up primes an
// index, keep fewer. Traced runs use the first input only.
var inputsPerRun = map[string]int{"kmodes-cold": 2, "kmodes-warm": 2, "simhash-kmeans": 6}

// inputSeed derives input j's seed from the run's seed; a run with one
// input uses the seed itself.
func inputSeed(seed int64, j, inputs int) int64 {
	if inputs == 1 {
		return seed
	}
	return seed*int64(inputs) + int64(j)
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one benchmark run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	workers  int
	scratch  string
}

func main() {
	os.Exit(run(os.Args[1:], fullScale, os.Stdout, os.Stderr))
}

// run parses the command line and runs the benchmark at the sizes sc.
func run(args []string, sc scale, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 35, "measuring time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced re-drive")
	scratch := fs.String("scratch", ".bench_build/scratch", "directory for files a workload writes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *workload) || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --trace 0 or 1 and --seconds > 0\n", workloadNames)
		return 2
	}
	opts := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sc: sc, workers: min(2, runtime.NumCPU()), scratch: *scratch,
	}
	res, report, err := benchmark(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d failed: %v\n", res.Failed, res.Attempted, report["problems"])
		return 1
	}
	return 0
}

// checker counts attempted operations and failed ones, with a reason
// per failure.
type checker struct {
	attempted, failed int
	problems          []string
}

func (c *checker) fail(count int, format string, args ...any) {
	c.failed += count
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// benchmark runs one workload for one seed.
func benchmark(o options) (result, map[string]any, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return result{}, nil, err
	}
	// Absolute, so the index files can be found in /proc/self/maps.
	scratch, err := filepath.Abs(o.scratch)
	if err != nil {
		return result{}, nil, err
	}
	o.scratch = scratch
	m := describeMachine()
	inputs := inputsPerRun[o.workload]
	ins := make([]instance, inputs)
	if o.trace {
		ins = ins[:1]
	}
	for j := range ins {
		in, err := newInstance(o.workload, inputSeed(o.seed, j, inputs), o.sc, o.workers, o.scratch)
		if err != nil {
			return result{}, nil, fmt.Errorf("preparing %s: %w", o.workload, err)
		}
		defer in.close()
		ins[j] = in
	}
	// Write back what set-up left dirty (kmodes-warm's primed index
	// files, a fresh build's cache) now: the kernel would otherwise
	// flush it some 30 s later, in the middle of the timed calls.
	syscall.Sync()

	chk := &checker{}
	report := map[string]any{"workload": o.workload, "seed": o.seed, "inputs_per_run": len(ins), "machine": m}
	var values map[string]float64
	var defs []metricDef
	if o.trace {
		values, err = traced(o, ins[0], chk, report)
		defs = perLayerDefs
	} else {
		values, err = untraced(o, ins, chk, report)
		defs = endToEndDefs
	}
	if err != nil {
		return result{}, nil, err
	}
	info := ins[0].info()
	if m.LLCBytes > 0 {
		info["dataset_over_llc"] = float64(info["dataset_bytes"].(int)) / float64(m.LLCBytes)
		info["index_over_llc"] = float64(report["index_bytes_est"].(int64)) / float64(m.LLCBytes)
	}
	report["inputs"] = info
	report["problems"] = chk.problems
	metrics, err := withUnits(defs, values)
	if err != nil {
		return result{}, nil, err
	}
	return result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	}, report, nil
}

// untraced makes facade calls, cycling through the inputs, until the
// measuring time is spent, and returns the end-to-end metrics.
func untraced(o options, ins []instance, chk *checker, report map[string]any) (map[string]float64, error) {
	var outs []*solveOut
	firsts := make([]*solveOut, len(ins))
	var peakRSS float64
	// Return set-up's garbage to the OS, so the first call's resident
	// memory does not depend on how far the background scavenger got,
	// and start the peak there: a set-up that primes an index must not
	// count in the call's peak.
	debug.FreeOSMemory()
	report["peak_rss_from_setup_end"] = resetPeakRSS()
	start := time.Now()
	last := make([]float64, len(ins)) // each input's latest call, in seconds
	for len(outs) < minCallsPerInput*len(ins) || fits(start, last[len(outs)%len(ins)], o.seconds) {
		call := len(outs) + 1
		in := ins[len(outs)%len(ins)]
		first := &firsts[len(outs)%len(ins)]
		callStart := time.Now()
		out, err := in.solve()
		chk.attempted++
		if err != nil {
			chk.fail(1, "call %d: %v", call, err)
			return nil, fmt.Errorf("call %d: %w", call, err)
		}
		checkCall(in, out, chk, call)
		if *first == nil {
			*first = out
		} else if !slices.Equal(out.assign, (*first).assign) {
			chk.fail(1, "call %d: assignment differs from the first call on the same input", call)
		}
		last[len(outs)%len(ins)] = time.Since(callStart).Seconds()
		if call == 1 {
			// Sampled after one call, so the peak does not depend on
			// how many calls fit in the measuring time.
			peakRSS = peakRSSMiB()
		}
		outs = append(outs, out)
	}
	var solves, iterates []float64
	for _, o := range outs {
		solves = append(solves, o.solveS)
		iterates = append(iterates, o.iterateS)
	}
	report["calls"] = len(outs)
	report["solve_s_each"] = solves
	report["iterate_s_each"] = iterates
	report["index_bytes_est"] = indexBytes(o.sc, outs[0])
	report["passes"] = len(outs[0].stats.Iterations)
	report["bootstrap_s"] = outs[0].stats.Bootstrap.Seconds()
	return endToEndValues(ins, firsts, outs, peakRSS), nil
}

// fits reports whether a call expected to take as long as the last one
// on the same input, started now, ends less than half a call after the
// measuring time that began at start. A run then lasts about the
// measuring time, however long its calls take.
func fits(start time.Time, last, seconds float64) bool {
	return time.Since(start).Seconds()+last/2 <= seconds
}

// checkCall runs the per-call output checks: the cost never rises from
// one pass to the next, and a warm start reproduces the cold assignment
// it was primed with.
func checkCall(in instance, out *solveOut, chk *checker, call int) {
	its := out.stats.Iterations
	for i := 1; i < len(its); i++ {
		if its[i].Cost > its[i-1].Cost {
			chk.fail(1, "call %d: cost rose from %v to %v at pass %d", call, its[i-1].Cost, its[i].Cost, i+1)
			break
		}
	}
	if km, ok := in.(*kmodesInstance); ok && km.primeAssign != nil && !slices.Equal(out.assign, km.primeAssign) {
		chk.fail(1, "call %d: warm-start assignment differs from the cold run of the same seed", call)
	}
}

// traced makes one untraced facade call, then re-drives the clustering
// traced until the measuring time is spent, and returns the per-layer
// metrics.
func traced(o options, in instance, chk *checker, report map[string]any) (map[string]float64, error) {
	base, err := in.solve()
	chk.attempted++
	if err != nil {
		chk.fail(1, "untraced call: %v", err)
		return nil, fmt.Errorf("untraced call: %w", err)
	}
	checkCall(in, base, chk, 1)
	var runs []tracedRun
	start := time.Now()
	var lastS float64 // the latest re-drive, in seconds
	for len(runs) < 1 || fits(start, lastS, o.seconds) {
		redriveStart := time.Now()
		runtime.GC()
		tr := newTracer()
		rr, err := in.redrive(tr)
		chk.attempted++
		if err != nil {
			chk.fail(1, "traced re-drive %d: %v", len(runs)+1, err)
			return nil, fmt.Errorf("traced re-drive %d: %w", len(runs)+1, err)
		}
		if !slices.Equal(rr.assign, base.assign) {
			chk.fail(1, "traced re-drive %d: final assignment differs from the untraced call's", len(runs)+1)
		}
		if err := checkPasses(rr.stats.Iterations, base.stats.Iterations); err != nil {
			chk.fail(1, "traced re-drive %d: %v", len(runs)+1, err)
		}
		runs = append(runs, tracedRun{sum: summarize(tr.spans, "solve"), rr: rr})
		lastS = time.Since(redriveStart).Seconds()
	}
	values := perLayerValues(in, base, runs)
	values["fail_frac"] = float64(chk.failed) / float64(chk.attempted)
	last := runs[len(runs)-1].sum
	report["traced_calls"] = len(runs)
	report["untraced_solve_s"] = base.solveS
	report["traced_wall_s"] = last.WallS
	report["spans"] = last.Spans
	report["low_coverage"] = values["trace.coverage"] < lowCoverage
	report["index_bytes_est"] = indexBytes(o.sc, base)
	return values, nil
}

// indexBytes estimates the LSH index's size: the mapped size of a
// warm-started index, otherwise a frozen layout's item and slot arrays
// (two int32 per item per band) plus the materialised foreign slots.
func indexBytes(sc scale, out *solveOut) int64 {
	n, bands := sc.items, sc.bands
	if out.centroids != nil {
		n, bands = sc.points, sc.simBands
	}
	if out.stats.MmapBytes > 0 {
		return out.stats.MmapBytes
	}
	return int64(n)*int64(bands)*8 + out.stats.ForeignSlotBytes
}
