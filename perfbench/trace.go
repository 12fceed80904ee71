package main

import (
	"sort"
	"strings"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans live in memory and are summarised when the run ends; the
// program under test is not instrumented. A span's name is
// "<layer>.<step>", e.g. "lsh.sign" or "kmodes.exact_scan".
//
// Two kinds of span exist. A plain span brackets one call with begin
// and end. A folded span sums many short calls made under the same
// parent (one per item, say) into one record with a call count, so a
// per-item loop does not store a span per item.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
	folded map[foldKey]int
}

type span struct {
	Name   string
	Parent int // -1 for a root span
	Start  time.Duration
	Dur    time.Duration
	Calls  int64
}

type foldKey struct {
	parent int
	name   string
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), folded: map[foldKey]int{}}
}

// begin opens a span as a child of the innermost open span and
// returns its handle for end.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin), Calls: 1})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("tracer: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.Dur = time.Since(t.origin) - s.Start
}

// around records fn as one span.
func (t *tracer) around(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// fold adds calls calls lasting d in total to the folded span name
// under the innermost open span.
func (t *tracer) fold(name string, d time.Duration, calls int64) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	key := foldKey{parent, name}
	id, ok := t.folded[key]
	if !ok {
		t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin)})
		id = len(t.spans) - 1
		t.folded[key] = id
	}
	t.spans[id].Dur += d
	t.spans[id].Calls += calls
}

// selfTimes returns, per span, its duration minus the time its child
// spans cover. Children of one parent never overlap (they are made on
// the caller's goroutine, or are wall-time shares of one parallel
// region), so the covered time is their sum.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}

// layerOf returns the layer a span name belongs to: the part before
// the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanTotal is one span name's summed self time and call count.
type spanTotal struct {
	Name  string  `json:"name"`
	SelfS float64 `json:"self_s"`
	Calls int64   `json:"calls"`
}

// traceSummary is the accounting of one traced solve.
type traceSummary struct {
	// WallS is the duration of the root span named root.
	WallS float64
	// SelfS sums self time per span name over the root's descendants.
	SelfS map[string]float64
	// Coverage is the share of the root's wall time that its
	// descendants' self times attribute to a layer; the rest is the
	// root's own self time, time no layer span accounts for.
	Coverage float64
	// Spans lists the per-name totals, largest self time first.
	Spans []spanTotal
}

// summarize accounts for the spans under the first root span named
// root. Spans outside that tree (set-up done for the trace only) are
// listed in Spans but left out of the coverage.
func summarize(spans []span, root string) traceSummary {
	self := selfTimes(spans)
	rootID := -1
	for i, s := range spans {
		if s.Parent < 0 && s.Name == root {
			rootID = i
			break
		}
	}
	inTree := func(i int) bool {
		for ; i >= 0; i = spans[i].Parent {
			if i == rootID {
				return true
			}
		}
		return false
	}
	sum := traceSummary{SelfS: map[string]float64{}}
	totals := map[string]*spanTotal{}
	var attributed time.Duration
	for i, s := range spans {
		if i != rootID && inTree(i) {
			attributed += self[i]
		}
		if i == rootID {
			continue
		}
		sum.SelfS[s.Name] += self[i].Seconds()
		tot, ok := totals[s.Name]
		if !ok {
			tot = &spanTotal{Name: s.Name}
			totals[s.Name] = tot
		}
		tot.SelfS += self[i].Seconds()
		tot.Calls += s.Calls
	}
	if rootID >= 0 && spans[rootID].Dur > 0 {
		sum.WallS = spans[rootID].Dur.Seconds()
		sum.Coverage = attributed.Seconds() / sum.WallS
	}
	for _, tot := range totals {
		sum.Spans = append(sum.Spans, *tot)
	}
	sort.Slice(sum.Spans, func(i, j int) bool { return sum.Spans[i].SelfS > sum.Spans[j].SelfS })
	return sum
}
