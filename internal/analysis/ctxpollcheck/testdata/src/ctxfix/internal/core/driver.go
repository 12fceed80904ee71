// Package core is a ctxpollcheck fixture mimicking the driver shapes.
package core

import "context"

type space struct{}

func (space) Dissimilarity(item, cluster int) float64 { return 0 }

func (space) NearestExact(item int, scratch []int32) int { return 0 }

type querier struct{}

func (querier) Candidates(item int32, assign []int32) []int32 { return nil }

type driver struct {
	space space
	q     querier
	ctx   context.Context
	n, k  int
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// unpolledPass is the PR 2 bug shape: per-item queries, no poll.
func (d *driver) unpolledPass(assign []int32) {
	for i := 0; i < d.n; i++ { // want `per-item loop performs driver work without polling`
		_ = d.q.Candidates(int32(i), assign)
	}
}

// polledPass polls through the package ctxErr helper.
func (d *driver) polledPass(assign []int32) {
	poll := 0
	for i := 0; i < d.n; i++ {
		if poll++; poll >= 1024 {
			poll = 0
			if ctxErr(d.ctx) != nil {
				return
			}
		}
		_ = d.q.Candidates(int32(i), assign)
	}
}

// unpolledScan is the exact-scan shape: every item against all k
// centroids through the space's ExactScanner, no poll.
func (d *driver) unpolledScan(assign []int32, scratch []int32) {
	for i := range assign { // want `per-item loop performs driver work without polling`
		assign[i] = int32(d.space.NearestExact(i, scratch))
	}
}

// polledScan polls once per chunk of the exact scan.
func (d *driver) polledScan(assign []int32, scratch []int32) {
	for i := range assign {
		if i%1024 == 0 && ctxErr(d.ctx) != nil {
			return
		}
		assign[i] = int32(d.space.NearestExact(i, scratch))
	}
}

// directErrPass polls ctx.Err directly.
func (d *driver) directErrPass(assign []int32) {
	for i := 0; i < d.n; i++ {
		if d.ctx != nil && d.ctx.Err() != nil {
			return
		}
		_ = d.q.Candidates(int32(i), assign)
	}
}

// stopPass polls a stop callback (the SignAll shape).
func (d *driver) stopPass(stop func() bool, assign []int32) {
	for i := 0; i < d.n; i++ {
		if stop() {
			return
		}
		_ = d.q.Candidates(int32(i), assign)
	}
}

// wgDoneIsNotAPoll spawns workers whose own loops poll, but the outer
// spawn body's Done call must not count as one.
func (d *driver) wgDoneIsNotAPoll(assign []int32) {
	type waitGroup struct{}
	done := func(waitGroup) {}
	var wg waitGroup
	for g := 0; g < 4; g++ { // want `per-item loop performs driver work without polling`
		go func() {
			defer done(wg)
			_ = d.q.Candidates(0, assign)
		}()
	}
}

// seedLoop is k-bounded and annotated.
func (d *driver) seedLoop(seeds []int32, assign []int32) {
	//lshvet:ignore ctxpollcheck k seeds only, bounded by the cluster count
	for _, s := range seeds {
		_ = d.q.Candidates(s, assign)
	}
}

// bestOf is a work unit: its candidate loop is bounded by the shortlist
// and the caller polls.
func (d *driver) bestOf(item int, candidates []int32) int32 {
	best := int32(-1)
	bestD := 1e300
	for _, c := range candidates {
		if dist := d.space.Dissimilarity(item, int(c)); dist < bestD {
			bestD, best = dist, c
		}
	}
	return best
}

// plainLoop does no per-item driver work; no poll needed.
func (d *driver) plainLoop(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
