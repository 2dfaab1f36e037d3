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
	c := &cbjSearcher{searcher: s, depthOf: make([]int, p.Vars), mark: make([]int, p.Vars)}
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

// cbjSearcher adds to the searcher the depth of every assigned variable and
// one conflict set per depth. The sets live in buffers reused across the
// search, so a node allocates nothing: conf[d] lists the variables the
// variable at depth d has conflicted with since it was picked, and mark[u]
// == token[d] records that u was last added to conf[d] in that build. A
// variable that a deeper set took over meanwhile can be listed twice;
// CBJ only unions the sets and takes their deepest member, so a repeat
// changes no jump.
type cbjSearcher struct {
	*searcher
	depthOf []int
	conf    [][]int
	token   []int
	mark    []int
	builds  int
	row     []int // checkBackward's scratch
}

// open starts an empty conflict set at depth.
func (c *cbjSearcher) open(depth int) {
	if depth == len(c.conf) {
		c.conf = append(c.conf, nil)
		c.token = append(c.token, 0)
	}
	c.builds++
	c.conf[depth], c.token[depth] = c.conf[depth][:0], c.builds
}

// add puts u into the conflict set at depth.
func (c *cbjSearcher) add(depth, u int) {
	if c.mark[u] != c.token[depth] {
		c.mark[u] = c.token[depth]
		c.conf[depth] = append(c.conf[depth], u)
	}
}

// search returns (found, jumpDepth, src). When found is false, conf[src]
// holds the conflict set that decided the jump, and when jumpDepth <
// depth-1, callers between jumpDepth and the current depth unwind without
// trying further values and pass src up unchanged.
func (c *cbjSearcher) search(depth int) (bool, int, int) {
	if c.nAssigned == c.p.Vars {
		return true, 0, 0
	}
	v := c.pickVar()
	c.depthOf[v] = depth
	c.open(depth)

	for val := 0; val < c.p.Dom; val++ {
		if !c.dom[v][val] {
			continue
		}
		if c.opts.NodeLimit > 0 && c.stats.Nodes >= c.opts.NodeLimit {
			c.aborted = true
			c.depthOf[v] = -1
			return false, -1, depth
		}
		c.stats.Nodes++
		if c.cancel.cancelledAfter(1) {
			c.aborted = true
			c.depthOf[v] = -1
			return false, -1, depth
		}
		c.assign[v] = val
		c.nAssigned++
		if c.nAssigned > c.stats.MaxDepth {
			c.stats.MaxDepth = c.nAssigned
		}
		if !c.checkBackward(v, depth) {
			c.assign[v] = -1
			c.nAssigned--
			continue
		}
		found, jumpTo, src := c.search(depth + 1)
		if found {
			return true, 0, 0
		}
		c.assign[v] = -1
		c.nAssigned--
		c.stats.Backtracks++
		if c.aborted {
			c.depthOf[v] = -1
			return false, -1, depth
		}
		if jumpTo < depth {
			// The conflict lies above us entirely: unwind without trying
			// further values of v.
			c.depthOf[v] = -1
			return false, jumpTo, src
		}
		// The child's conflicts involve v: absorb them (minus v) and try
		// the next value.
		for _, u := range c.conf[src] {
			if u != v {
				c.add(depth, u)
			}
		}
	}
	// Exhausted: jump to the deepest variable in the conflict set.
	c.depthOf[v] = -1
	jump := -1
	for _, u := range c.conf[depth] {
		if d := c.depthOf[u]; d > jump {
			jump = d
		}
	}
	return false, jump, depth
}

// checkBackward verifies the constraints on v whose scope is fully assigned
// and adds the other scope variables of every violated constraint (the
// conflict explanation) to the conflict set at depth. It reports whether
// none is violated.
func (c *cbjSearcher) checkBackward(v, depth int) bool {
	ok := true
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
		c.row = c.row[:0]
		for _, u := range con.Scope {
			c.row = append(c.row, c.assign[u])
		}
		if !con.Table.Has(c.row) {
			ok = false
			for _, u := range con.Scope {
				if u != v {
					c.add(depth, u)
				}
			}
		}
	}
	return ok
}
