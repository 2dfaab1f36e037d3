package treewidth

import (
	"context"
	"fmt"
	"math/big"
	"slices"

	"csdb/internal/csp"
	"csdb/internal/graph"
	"csdb/internal/relation"
)

// This file implements the algorithmic content of Theorem 6.2: a CSP
// instance whose primal (Gaifman) graph has a tree decomposition of width w
// is solvable in time O(#bags · d^(w+1) · poly) — polynomial for fixed w —
// and its solutions are countable in the same time (whereas #CSP is
// #P-hard in general). The bags, joined along the decomposition, are the
// nodes of the join-tree engine (relation.JoinTree), and each bag holds the
// constraint tables given to it plus a unary table for each restricted
// domain. No bag is ever materialised: as Proposition 6.1 reads the DP, a
// bag only sends its parent the projection of the join of its tables and
// its children's messages onto the variables they share, so a bag costs what
// its joins produce, d^(w+1) rows only in the worst case. The engine's
// root-first extraction finds a solution and its weighted pass counts them.

// PrimalGraph returns the Gaifman graph of the instance: one vertex per
// variable, with an edge between every two variables sharing a constraint
// scope.
func PrimalGraph(p *csp.Instance) *graph.Graph {
	var edges [][2]int
	for _, con := range p.Constraints {
		for i, u := range con.Scope {
			for _, v := range con.Scope[i+1:] {
				if u != v {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
	}
	return graph.FromEdges(p.Vars, edges)
}

// SolveDecomposed decides the instance over the given tree decomposition of
// its primal graph and returns a solution when one exists. d must come from
// this package's constructors (DecomposeWithin, FromOrdering,
// BestHeuristic, ...) over PrimalGraph(p), which put every scope inside a
// bag: it is trusted, not re-validated, and a scope that no bag holds is an
// error. An expired ctx yields an Aborted result. Stats.Nodes counts the
// rows of the messages the bags sent their parents.
func SolveDecomposed(ctx context.Context, p *csp.Instance, d *Decomposition) (csp.Result, error) {
	q := p.NormalizeDistinct()
	tree, err := bagTree(q, d)
	if err != nil {
		return csp.Result{}, err
	}
	return SolveTree(ctx, tree, q.Vars)
}

// SolveTree solves a bounded-width route's join tree over vars variables:
// a tree decomposition's bags, or GYO's join tree over the constraints.
// The tree is trusted: one without connectedness yields an error or a
// solution the extraction checked against every table, never a wrong
// verdict, since a message never loses a row some solution uses. A
// variable in no table takes the value 0. An expired ctx yields an Aborted
// result. Stats.Nodes counts the rows of the messages the nodes sent their
// parents.
func SolveTree(ctx context.Context, tree *relation.JoinTree, vars int) (csp.Result, error) {
	sol, found, sent, err := tree.Solve(ctx, vars)
	res := csp.Result{Stats: csp.Stats{Nodes: sent}}
	switch {
	case err != nil && ctx.Err() != nil:
		res.Aborted = true
	case err != nil:
		return csp.Result{}, err
	case found:
		res.Found, res.Solution = true, sol
	}
	return res, nil
}

// CountDecomposed counts the solutions of the instance over the given tree
// decomposition of its primal graph, which must come from this package's
// constructors, as for SolveDecomposed. Counts are exact big integers,
// since solution counts grow as d^n. An expired ctx is returned as the
// error.
func CountDecomposed(ctx context.Context, p *csp.Instance, d *Decomposition) (*big.Int, error) {
	tree, err := bagTree(p.NormalizeDistinct(), d)
	if err != nil {
		return nil, err
	}
	return tree.Count(ctx)
}

// Solve decomposes the primal graph with the best heuristic and runs the DP.
func Solve(p *csp.Instance) (csp.Result, error) {
	return SolveDecomposed(context.Background(), p, BestHeuristic(PrimalGraph(p)))
}

// Count computes the exact number of solutions using the best heuristic
// decomposition of the primal graph.
func Count(p *csp.Instance) (*big.Int, error) {
	return CountDecomposed(context.Background(), p, BestHeuristic(PrimalGraph(p)))
}

// bagTree lays q out along d rooted at bag 0: one join-tree node per bag.
// Each constraint goes to the first bag, among those holding its first
// variable, that holds its whole scope, and each restricted domain where
// AddDomains puts it.
func bagTree(q *csp.Instance, d *Decomposition) (*relation.JoinTree, error) {
	// bagsOf[off[v]:off[v+1]] are the bags holding v, in ascending order.
	off := make([]int32, q.Vars+1)
	for _, bag := range d.Bags {
		for _, v := range bag {
			off[v+1]++
		}
	}
	for v := 0; v < q.Vars; v++ {
		off[v+1] += off[v]
	}
	bagsOf := make([]int32, off[q.Vars])
	fill := slices.Clone(off[:q.Vars])
	for b, bag := range d.Bags {
		for _, v := range bag {
			bagsOf[fill[v]] = int32(b)
			fill[v]++
		}
	}
	tree := &relation.JoinTree{Dom: q.Dom, Nodes: make([]relation.Node, d.NumBags())}
	if d.NumBags() > 0 {
		tree.Parent, _ = d.Rooted(0)
	}
	for b, bag := range d.Bags {
		tree.Nodes[b].Scope = bag
	}
	for _, con := range q.Constraints {
		home := -1
	bags:
		for _, b := range bagsOf[off[con.Scope[0]]:off[con.Scope[0]+1]] {
			for _, v := range con.Scope {
				if _, found := slices.BinarySearch(d.Bags[b], v); !found {
					continue bags
				}
			}
			home = int(b)
			break
		}
		if home < 0 {
			return nil, fmt.Errorf("treewidth: no bag contains scope %v", con.Scope)
		}
		n := &tree.Nodes[home]
		n.Atoms = append(n.Atoms, relation.Atom{Scope: con.Scope, Rows: con.Table})
	}
	AddDomains(tree, q)
	return tree, nil
}

// AddDomains gives each restricted variable's domain, as a unary table of
// its values in [0, Dom), to the first node of tree holding the variable,
// or else to a root node of its own. A unary table under any node holding
// its variable keeps the tree connected.
func AddDomains(tree *relation.JoinTree, q *csp.Instance) {
	if q.Domains == nil {
		return
	}
	home := make([]int32, q.Vars) // 1 + the first node holding v
	for i, n := range tree.Nodes {
		for _, v := range n.Scope {
			if home[v] == 0 {
				home[v] = int32(i + 1)
			}
		}
	}
	m := len(tree.Nodes)
	tree.Parent = tree.Parent[:m:m] // appends copy: the caller's parents stay
	for v, dom := range q.Domains {
		if dom == nil {
			continue
		}
		tab, row := relation.NewTable(1), []int{0}
		for _, row[0] = range dom {
			if row[0] >= 0 && row[0] < q.Dom {
				tab.Add(row)
			}
		}
		a := relation.Atom{Scope: []int{v}, Rows: tab}
		if h := home[v] - 1; h >= 0 {
			tree.Nodes[h].Atoms = append(tree.Nodes[h].Atoms, a)
			continue
		}
		tree.Nodes = append(tree.Nodes, relation.Node{Scope: a.Scope, Atoms: []relation.Atom{a}})
		tree.Parent = append(tree.Parent, -1)
	}
}
