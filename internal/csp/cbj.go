package csp

import (
	"context"
	"time"
)

// Conflict-directed backjumping (CBJ) — the classical refinement of
// chronological backtracking from the constraint-satisfaction literature
// the paper's Section 1 surveys: when a variable exhausts its values, the
// search jumps back to the deepest variable actually responsible for the
// conflicts, skipping irrelevant intermediate assignments.
//
// SolveCBJ decides satisfiability (single-solution search); it checks
// constraints backward against assigned variables like BT, so its node
// counts are directly comparable to Solve with Algorithm BT.

// SolveCBJ searches for one solution using conflict-directed backjumping.
func SolveCBJ(p *Instance, opts Options) Result {
	return SolveCBJCtx(context.Background(), p, opts)
}

// SolveCBJCtx is SolveCBJ under a context: the search polls ctx every
// cancelCheckInterval nodes and returns Aborted=true once it is cancelled.
func SolveCBJCtx(ctx context.Context, p *Instance, opts Options) Result {
	s := newSearcher(ctx, p, opts)
	res := solveCBJ(s)
	res.Stats.Duration = time.Since(s.start)
	res.Stats.Strategy = "CBJ"
	s.finishObs(res)
	return res
}

func solveCBJ(s *searcher) Result {
	p := s.p
	if s.cancel.cancelledNow() {
		return Result{Aborted: true, Stats: s.stats}
	}
	// Initial domain sanity (empty per-variable domains).
	for v := 0; v < p.Vars; v++ {
		if s.size[v] == 0 {
			return Result{Stats: s.stats}
		}
	}
	c := &cbjSearcher{searcher: s, depthOf: make([]int, p.Vars)}
	for i := range c.depthOf {
		c.depthOf[i] = -1
	}
	found, _, _ := c.search(0)
	if found {
		sol := make([]int, p.Vars)
		copy(sol, s.assign)
		return Result{Found: true, Solution: sol, Stats: s.stats}
	}
	return Result{Aborted: s.aborted, Stats: s.stats}
}

type cbjSearcher struct {
	*searcher
	depthOf []int
}

// search returns (found, jumpDepth, conflictVars). When found is false and
// jumpDepth < depth-1, callers between jumpDepth and the current depth
// unwind without trying further values.
func (c *cbjSearcher) search(depth int) (bool, int, map[int]bool) {
	if c.nAssigned == c.p.Vars {
		return true, 0, nil
	}
	v := c.pickVar()
	c.depthOf[v] = depth
	conf := make(map[int]bool)

	for val := 0; val < c.p.Dom; val++ {
		if !c.dom[v][val] {
			continue
		}
		c.stats.Nodes++
		if c.opts.NodeLimit > 0 && c.stats.Nodes > c.opts.NodeLimit {
			c.aborted = true
			c.depthOf[v] = -1
			return false, -1, nil
		}
		if c.cancel.cancelled() {
			c.aborted = true
			c.depthOf[v] = -1
			return false, -1, nil
		}
		c.assign[v] = val
		c.nAssigned++
		if c.nAssigned > c.stats.MaxDepth {
			c.stats.MaxDepth = c.nAssigned
		}
		ok, conflictVars := c.checkBackward(v)
		if !ok {
			for _, u := range conflictVars {
				if u != v {
					conf[u] = true
				}
			}
			c.assign[v] = -1
			c.nAssigned--
			continue
		}
		found, jumpTo, childConf := c.search(depth + 1)
		if found {
			return true, 0, nil
		}
		c.assign[v] = -1
		c.nAssigned--
		c.stats.Backtracks++
		if c.aborted {
			c.depthOf[v] = -1
			return false, -1, nil
		}
		if jumpTo < depth {
			// The conflict lies above us entirely: unwind without trying
			// further values of v.
			c.depthOf[v] = -1
			return false, jumpTo, childConf
		}
		// The child's conflicts involve v: absorb them (minus v) and try
		// the next value.
		for u := range childConf {
			if u != v {
				conf[u] = true
			}
		}
	}
	// Exhausted: jump to the deepest variable in the conflict set.
	c.depthOf[v] = -1
	jump := -1
	for u := range conf {
		if d := c.depthOf[u]; d > jump {
			jump = d
		}
	}
	return false, jump, conf
}

// checkBackward verifies the constraints on v whose scope is fully assigned
// and returns the union of the other scope variables of every violated
// constraint (the conflict explanation).
func (c *cbjSearcher) checkBackward(v int) (bool, []int) {
	var conflicts []int
	ok := true
	row := make([]int, 8)
	for _, con := range c.watch[v] {
		full := true
		for _, u := range con.Scope {
			if c.assign[u] < 0 {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		if cap(row) < len(con.Scope) {
			row = make([]int, len(con.Scope))
		}
		r := row[:len(con.Scope)]
		for i, u := range con.Scope {
			r[i] = c.assign[u]
		}
		if !con.Table.Has(r) {
			ok = false
			for _, u := range con.Scope {
				if u != v {
					conflicts = append(conflicts, u)
				}
			}
		}
	}
	return ok, conflicts
}
