package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"solve_s", "lsh.sign_s", "kmodes-warm.x", "9a", "a.B_c-d"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q should be a valid metric name", ok)
		}
	}
	for _, bad := range []string{"", "_s", ".s", "a b", "a/b", "é", "lsh:sign",
		"a1234567890123456789012345678901234567890123456789012345678901234"} {
		if metricName.MatchString(bad) {
			t.Errorf("%q should not be a valid metric name", bad)
		}
	}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		seen := map[string]bool{}
		for _, d := range defs {
			if !metricName.MatchString(d.name) || !metricUnit.MatchString(d.unit) {
				t.Errorf("metric %q unit %q breaks the grammar", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %q declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	if err := checkMetrics(map[string]metric{"x": {Value: math.NaN(), Unit: "s"}}); err == nil {
		t.Error("a NaN value should be rejected")
	}
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndDefs)
	same("per_layer", spec.PerLayer, perLayerDefs)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}

// fixedNearest is an instance whose nearest_frac is fixed;
// endToEndValues calls nothing else on an instance.
type fixedNearest struct {
	instance
	frac float64
}

func (f fixedNearest) nearestFrac(*solveOut) float64 { return f.frac }

func TestEndToEndTimingsAreMeansOfPerInputMedians(t *testing.T) {
	// Calls cycle through two inputs: 0, 1, 0, 1, 0, 1.
	var outs []*solveOut
	for _, s := range []float64{1, 10, 2, 11, 9, 30} {
		outs = append(outs, &solveOut{solveS: s, setupS: s / 2})
	}
	ins := []instance{fixedNearest{frac: 0.5}, fixedNearest{frac: 1}}
	v := endToEndValues(ins, outs[:2], outs, 100)
	for _, tc := range []struct {
		name string
		want float64
	}{
		// Input medians 2 and 11; the pooled median would be 9.5.
		{"solve_s", 6.5},
		{"setup_s", 3.25},
		{"nearest_frac", 0.75},
		{"peak_rss_mb", 100},
	} {
		if got := v[tc.name]; got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
}
