package hypergraph

import (
	"context"
	"fmt"

	"csdb/internal/csp"
	"csdb/internal/relation"
	"csdb/internal/treewidth"
)

// This file lifts Yannakakis' algorithm from conjunctive queries to CSP
// instances: an α-acyclic instance is decided (and a solution extracted)
// in time polynomial in the instance size, per the acyclic-joins line of
// Section 6. The constraints, laid out along GYO's join tree, are the input
// of the join-tree engine (relation.JoinTree), whose up pass sends each
// hyperedge's exact message to its parent and whose root-first extraction
// then assigns each hyperedge a tuple backtrack-free. A tree-structured
// binary instance is the special case whose join tree is its forest of
// constraint edges, so Freuder's tree algorithm runs here too.

// SolveAcyclicCSP decides an α-acyclic CSP instance in polynomial time and
// returns a satisfying assignment when one exists. jt must be GYO's join
// tree for FromInstance(p) — one hyperedge per constraint, in constraint
// order — as the dispatcher's classifier builds it, or nil, in which case
// GYO runs here and an instance whose hypergraph is not α-acyclic is
// rejected with an error. A non-nil jt is trusted, not re-validated: a
// malformed one yields an error, never a wrong verdict (see
// treewidth.SolveTree). An expired ctx yields an Aborted result.
func SolveAcyclicCSP(ctx context.Context, p *csp.Instance, jt *JoinTree) (csp.Result, error) {
	// NormalizeDistinct keeps constraint order and turns every scope into a
	// distinct-variable scope, so constraint i still matches hyperedge i.
	q := p.NormalizeDistinct()
	m := len(q.Constraints)
	if jt == nil {
		acyclic, fresh := FromInstance(q).GYO()
		if !acyclic {
			return csp.Result{}, fmt.Errorf("hypergraph: instance is not α-acyclic")
		}
		jt = fresh
	}
	if len(jt.Parent) != m {
		return csp.Result{}, fmt.Errorf("hypergraph: join tree has %d edges for %d constraints", len(jt.Parent), m)
	}
	tree := &relation.JoinTree{Dom: q.Dom, Nodes: make([]relation.Node, m), Parent: jt.Parent}
	atoms := make([]relation.Atom, m)
	for i, con := range q.Constraints {
		atoms[i] = relation.Atom{Scope: con.Scope, Rows: con.Table}
		tree.Nodes[i] = relation.Node{Scope: con.Scope, Atoms: atoms[i : i+1 : i+1]}
	}
	treewidth.AddDomains(tree, q)
	return treewidth.SolveTree(ctx, tree, q.Vars)
}
