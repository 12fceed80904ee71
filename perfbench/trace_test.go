package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "solve", Parent: -1, Dur: 100 * ms},
		{Name: "lsh.sign", Parent: 0, Dur: 30 * ms},
		{Name: "core.pass", Parent: 0, Dur: 50 * ms},
		{Name: "lsh.query", Parent: 2, Dur: 20 * ms},
		{Name: "kmodes.distance", Parent: 2, Dur: 25 * ms},
		{Name: "lsh.recall", Parent: -1, Dur: 7 * ms},
	}
	want := []time.Duration{20 * ms, 30 * ms, 5 * ms, 20 * ms, 25 * ms, 7 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	sum := summarize(spans, "solve")
	if sum.WallS != 0.1 {
		t.Errorf("wall = %v, want 0.1", sum.WallS)
	}
	// Attributed: 30 + 5 + 20 + 25 = 80 of 100 ms; lsh.recall is
	// outside the solve tree.
	if math.Abs(sum.Coverage-0.8) > 1e-12 {
		t.Errorf("coverage = %v, want 0.8", sum.Coverage)
	}
	if math.Abs(sum.SelfS["lsh.recall"]-0.007) > 1e-12 || math.Abs(sum.SelfS["core.pass"]-0.005) > 1e-12 {
		t.Errorf("self times by name = %v", sum.SelfS)
	}
	if _, ok := sum.SelfS["solve"]; ok {
		t.Error("the root's own self time is the unattributed part, not a layer")
	}
	if sum.Spans[0].Name != "lsh.sign" {
		t.Errorf("spans should be ordered by self time, got %v first", sum.Spans[0].Name)
	}
}

func TestTracerNestingAndFold(t *testing.T) {
	tr := newTracer()
	root := tr.begin("solve")
	pass := tr.begin("core.pass")
	tr.fold("lsh.query", 3*time.Millisecond, 10)
	tr.fold("lsh.query", 2*time.Millisecond, 5)
	tr.end(pass)
	tr.around("kmodes.cost", func() {})
	tr.end(root)
	if len(tr.spans) != 4 {
		t.Fatalf("got %d spans, want 4 (repeat folds share one)", len(tr.spans))
	}
	q := tr.spans[2]
	if q.Name != "lsh.query" || q.Parent != pass || q.Dur != 5*time.Millisecond || q.Calls != 15 {
		t.Errorf("folded span = %+v", q)
	}
	if tr.spans[3].Parent != root {
		t.Errorf("kmodes.cost parent = %d, want the root", tr.spans[3].Parent)
	}
	for _, s := range tr.spans {
		if s.Dur < 0 {
			t.Errorf("span %s has negative duration", s.Name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("closing an outer span first should panic")
		}
	}()
	a := tr.begin("a")
	tr.begin("b")
	tr.end(a)
}

// TestFoldQueriesSplitsRegion checks that a pass's parallel region is
// split between lsh.query and the space's distance span by the shares
// of the workers' block time spent outside and inside emit.
func TestFoldQueriesSplitsRegion(t *testing.T) {
	ms := time.Millisecond
	t0 := time.Now()
	tr := newTracer()
	root := tr.begin("solve")
	a := &tracedAccel{tr: tr, queriers: []*tracedQuerier{
		// Two workers over a 100 ms region, 160 ms of block time in
		// all, 40 ms of it in emit; a querier with no blocks is ignored.
		{first: t0, last: t0.Add(90 * ms), block: 80 * ms, emit: 30 * ms, items: 64},
		{first: t0.Add(10 * ms), last: t0.Add(100 * ms), block: 80 * ms, emit: 10 * ms, items: 64},
		{},
	}}
	a.foldQueries("kmodes")
	tr.end(root)
	if len(a.queriers) != 0 {
		t.Errorf("%d queriers kept after the pass", len(a.queriers))
	}
	got := map[string]span{}
	for _, s := range tr.spans {
		got[s.Name] = s
	}
	if q := got["lsh.query"]; q.Dur != 75*ms || q.Calls != 128 || q.Parent != root {
		t.Errorf("lsh.query = %v over %d items under %d, want 75ms over 128 under %d", q.Dur, q.Calls, q.Parent, root)
	}
	if d := got["kmodes.distance"]; d.Dur != 25*ms || d.Calls != 128 {
		t.Errorf("kmodes.distance = %v over %d items, want 25ms over 128", d.Dur, d.Calls)
	}
}
