package hypergraph

import (
	"context"
	"fmt"

	"csdb/internal/csp"
	"csdb/internal/relation"
)

// This file lifts Yannakakis' algorithm from conjunctive queries to CSP
// instances: an α-acyclic instance is decided (and a solution extracted)
// in time polynomial in the instance size, per the acyclic-joins line of
// Section 6. The constraints, laid out along the join tree, are the input
// of the join-tree engine (relation.JoinTree), whose full reducer makes
// them globally consistent and whose root-first pass then assigns each
// hyperedge a tuple backtrack-free. A tree-structured binary instance is
// the special case whose join tree is its forest of constraint edges, so
// Freuder's tree algorithm runs here too.

// SolveAcyclicCSP decides an α-acyclic CSP instance in polynomial time and
// returns a satisfying assignment when one exists. jt must be GYO's join
// tree for FromInstance(p) — one hyperedge per constraint, in constraint
// order — as the dispatcher's classifier builds it, or nil, in which case
// GYO runs here and an instance whose hypergraph is not α-acyclic is
// rejected with an error. A non-nil jt is trusted, not re-validated: a
// malformed one yields an error, never a wrong verdict, since a semijoin
// never deletes a row some solution uses. An expired ctx yields an Aborted
// result.
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
	for i, con := range q.Constraints {
		tree.Nodes[i] = relation.Node{Scope: con.Scope, Rows: con.Table}
	}
	if q.Domains != nil {
		addDomainNodes(tree, q)
	}
	sol, found, err := tree.Solve(ctx, q.Vars)
	switch {
	case err != nil && ctx.Err() != nil:
		return csp.Result{Aborted: true}, nil
	case err != nil:
		return csp.Result{}, fmt.Errorf("hypergraph: %w", err)
	case !found:
		return csp.Result{}, nil
	}
	// A variable in no constraint and with no domain restriction takes the
	// first value.
	for v := range sol {
		if sol[v] < 0 {
			if q.Dom == 0 {
				return csp.Result{}, nil
			}
			sol[v] = 0
		}
	}
	return csp.Result{Found: true, Solution: sol}, nil
}

// addDomainNodes adds one unary node per restricted variable, holding its
// domain, as a child of the first constraint on the variable or else as a
// root. A unary node under any node holding its variable keeps the tree
// connected, so the reducer prunes every table by the domains for free.
func addDomainNodes(tree *relation.JoinTree, q *csp.Instance) {
	m := len(tree.Nodes)
	home := make([]int32, q.Vars) // 1 + the first constraint holding v
	for i, con := range q.Constraints {
		for _, v := range con.Scope {
			if home[v] == 0 {
				home[v] = int32(i + 1)
			}
		}
	}
	tree.Parent = tree.Parent[:m:m] // appends copy: the witness stays the classifier's
	row := []int{0}
	for v, dom := range q.Domains {
		if dom == nil {
			continue
		}
		t := relation.NewTable(1)
		for _, val := range dom {
			if val >= 0 && val < q.Dom {
				row[0] = val
				t.Add(row)
			}
		}
		tree.Nodes = append(tree.Nodes, relation.Node{Scope: []int{v}, Rows: t})
		tree.Parent = append(tree.Parent, int(home[v])-1)
	}
}
