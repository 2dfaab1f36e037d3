package consistency

import (
	"fmt"
	"slices"

	"csdb/internal/csp"
)

// This file implements Freuder's classical theorem — the historical root of
// Section 5's local-to-global consistency programme: on a tree-structured
// binary constraint network, directional arc consistency makes backtrack-
// free search possible. (It is also the width-1 case of Theorem 6.2.)

// IsTreeStructured reports whether the instance is binary (all scopes have
// at most 2 distinct variables) and its primal graph is a forest. It is a
// pure shape check on scopes — no constraint tables are cloned or rewritten
// — so the dispatcher can afford to call it on every instance: the distinct
// edges are sorted out of one flat slice and merged in a union-find forest,
// and an edge joining two vertices already connected closes a cycle.
func IsTreeStructured(p *csp.Instance) bool {
	edges := make([]uint64, 0, len(p.Constraints))
	for _, con := range p.Constraints {
		a, b := -1, -1
		for _, v := range con.Scope {
			switch {
			case a < 0 || v == a:
				a = v
			case b < 0 || v == b:
				b = v
			default:
				return false // a third distinct variable in one scope
			}
		}
		if b >= 0 {
			edges = append(edges, uint64(min(a, b))<<32|uint64(max(a, b)))
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	root := make([]int32, p.Vars)
	for v := range root {
		root[v] = int32(v)
	}
	find := func(v int32) int32 {
		for root[v] != v {
			root[v] = root[root[v]] // path halving
			v = root[v]
		}
		return v
	}
	for _, e := range edges {
		ra, rb := find(int32(e>>32)), find(int32(uint32(e)))
		if ra == rb {
			return false
		}
		root[ra] = rb
	}
	return true
}

// SolveTree solves a tree-structured binary instance backtrack-free:
// directional arc consistency from the leaves to a root, then a single
// greedy top-down assignment pass (Freuder 1982). Returns an error when the
// instance is not tree-structured.
func SolveTree(p *csp.Instance) (csp.Result, error) {
	q := p.NormalizeDistinct().Consolidate()
	if !IsTreeStructured(q) {
		return csp.Result{}, fmt.Errorf("consistency: instance is not tree-structured")
	}

	// Current domains as boolean masks.
	dom := make([][]bool, q.Vars)
	size := make([]int, q.Vars)
	for v := 0; v < q.Vars; v++ {
		dom[v] = make([]bool, q.Dom)
		for _, val := range q.DomainOf(v) {
			if val >= 0 && val < q.Dom && !dom[v][val] {
				dom[v][val] = true
				size[v]++
			}
		}
		if size[v] == 0 {
			return csp.Result{}, nil
		}
	}

	// Unary constraints prune directly; binary constraints are indexed per
	// edge (both orientations).
	type edgeCon struct {
		other int
		table *csp.Table
		flip  bool // tuple order is (other, v) instead of (v, other)
	}
	adj := make([][]edgeCon, q.Vars)
	for _, con := range q.Constraints {
		switch len(con.Scope) {
		case 1:
			v := con.Scope[0]
			for val := 0; val < q.Dom; val++ {
				if dom[v][val] && !con.Table.Has([]int{val}) {
					dom[v][val] = false
					size[v]--
				}
			}
			if size[v] == 0 {
				return csp.Result{}, nil
			}
		case 2:
			u, v := con.Scope[0], con.Scope[1]
			adj[u] = append(adj[u], edgeCon{other: v, table: con.Table, flip: false})
			adj[v] = append(adj[v], edgeCon{other: u, table: con.Table, flip: true})
		}
	}

	supports := func(e edgeCon, myVal, otherVal int) bool {
		if e.flip {
			return e.table.Has([]int{otherVal, myVal})
		}
		return e.table.Has([]int{myVal, otherVal})
	}

	// Root every component, order vertices root-first (BFS), then apply
	// directional arc consistency child -> parent in reverse BFS order.
	parent := make([]int, q.Vars)
	for i := range parent {
		parent[i] = -2
	}
	var bfs []int
	for start := 0; start < q.Vars; start++ {
		if parent[start] != -2 {
			continue
		}
		parent[start] = -1
		queue := []int{start}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			bfs = append(bfs, v)
			for _, e := range adj[v] {
				if parent[e.other] == -2 {
					parent[e.other] = v
					queue = append(queue, e.other)
				}
			}
		}
	}

	// DAC pass: for v in reverse BFS order, revise parent's domain against
	// v: a parent value survives iff it has a support in v's domain, for
	// every constraint connecting them.
	for i := len(bfs) - 1; i >= 0; i-- {
		v := bfs[i]
		pa := parent[v]
		if pa < 0 {
			continue
		}
		for _, e := range adj[pa] {
			if e.other != v {
				continue
			}
			for paVal := 0; paVal < q.Dom; paVal++ {
				if !dom[pa][paVal] {
					continue
				}
				supported := false
				for vVal := 0; vVal < q.Dom && !supported; vVal++ {
					if dom[v][vVal] && supports(e, paVal, vVal) {
						supported = true
					}
				}
				if !supported {
					dom[pa][paVal] = false
					size[pa]--
				}
			}
			if size[pa] == 0 {
				return csp.Result{}, nil
			}
		}
	}

	// Backtrack-free top-down assignment: every choice is guaranteed to
	// extend (Freuder's theorem). A failure here would be a bug, not an
	// input condition.
	assign := make([]int, q.Vars)
	for i := range assign {
		assign[i] = -1
	}
	for _, v := range bfs {
		chosen := -1
		for val := 0; val < q.Dom && chosen < 0; val++ {
			if !dom[v][val] {
				continue
			}
			ok := true
			for _, e := range adj[v] {
				if e.other == parent[v] && assign[e.other] >= 0 {
					if !supports(e, val, assign[e.other]) {
						ok = false
						break
					}
				}
			}
			if ok {
				chosen = val
			}
		}
		if chosen < 0 {
			return csp.Result{}, fmt.Errorf("consistency: backtrack-free assignment failed (internal error)")
		}
		assign[v] = chosen
	}
	if !q.Satisfies(assign) {
		return csp.Result{}, fmt.Errorf("consistency: tree solver produced an invalid assignment (internal error)")
	}
	return csp.Result{Found: true, Solution: assign}, nil
}
