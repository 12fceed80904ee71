package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload at tiny sizes, untraced and
// traced, and requires every declared metric and no failed check.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadNames {
		if inputsPerRun[w] < 1 {
			t.Errorf("%s: no inputs per run", w)
		}
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 7, seconds: 0.01, trace: trace, sc: smokeScale, workers: 2, scratch: t.TempDir()}
			res, report, err := benchmark(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v %d/%d failed: %v", w, trace, res.Correct, res.Failed, res.Attempted, report["problems"])
			}
			defs := endToEndDefs
			if trace {
				defs = perLayerDefs
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			if !trace {
				for _, d := range endToEndDefs {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, res.Metrics[d.name].Value)
					}
				}
			} else if c := res.Metrics["trace.coverage"].Value; c < lowCoverage {
				t.Errorf("%s: trace coverage %v below %v", w, c, lowCoverage)
			}
		}
	}
}

func TestRunPrintsResultLast(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "simhash-kmeans", "--seed", "2", "--seconds", "0.01", "--trace", "0",
		"--scratch", t.TempDir()}, smokeScale, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", res)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "simhash-kmeans", "--seed", "1", "--seconds", "1", "--trace", "2"},
		{"--workload", "simhash-kmeans", "--seed", "1", "--seconds", "0", "--trace", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, smokeScale, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}
