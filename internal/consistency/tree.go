package consistency

import (
	"slices"

	"csdb/internal/csp"
)

// This file recognizes the instances of Freuder's classical theorem — the
// historical root of Section 5's local-to-global consistency programme: on a
// tree-structured binary constraint network, directional arc consistency
// makes backtrack-free search possible. That is the width-1 case of
// Theorem 6.2, and the join-tree engine (relation.JoinTree) solves it: the
// dispatcher routes a tree-structured instance as an α-acyclic one
// (hypergraph.SolveAcyclicCSP), whose join tree is its constraint forest.

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
