package treewidth

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"sort"

	"csdb/internal/csp"
	"csdb/internal/graph"
	"csdb/internal/relation"
)

// This file implements the algorithmic content of Theorem 6.2: a CSP
// instance whose primal (Gaifman) graph has a tree decomposition of width w
// is solvable in time O(#bags · d^(w+1) · poly) — polynomial for fixed w —
// and its solutions are countable in the same time (whereas #CSP is
// #P-hard in general). Each bag becomes one relation, the assignments to
// its variables that satisfy the constraints it is given (Proposition 2.1's
// join, extended by the domains of its other variables), and the bags,
// joined along the decomposition, are the input of the join-tree engine
// (relation.JoinTree): its full reducer is the DP, its root-first pass
// extracts a solution, and its sum-product pass counts them.

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
// BestHeuristic, ...) over PrimalGraph(p), which put every variable in a
// bag and every scope inside one: it is trusted, not re-validated, and a
// scope that no bag holds is an error. An expired ctx yields an Aborted
// result. Stats.Nodes counts the bag rows built.
func SolveDecomposed(ctx context.Context, p *csp.Instance, d *Decomposition) (csp.Result, error) {
	q := p.NormalizeDistinct()
	tree, rows, err := bagTree(ctx, q, d)
	var sol []int
	found := false
	if err == nil {
		sol, found, err = tree.Solve(ctx, q.Vars)
	}
	res := csp.Result{Stats: csp.Stats{Nodes: rows}}
	switch {
	case err != nil && ctx.Err() != nil:
		res.Aborted = true
	case err != nil:
		return csp.Result{}, err
	case found && slices.Contains(sol, -1):
		return csp.Result{}, fmt.Errorf("treewidth: the decomposition leaves a variable in no bag")
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
	tree, _, err := bagTree(ctx, p.NormalizeDistinct(), d)
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

// bagCheck is a constraint given to a bag: its table, and the positions in
// the bag of its scope's variables, the last of which is last.
type bagCheck struct {
	tab  *csp.Table
	pos  []int
	last int
}

// bagTree lays q out along d rooted at bag 0: one join-tree node per bag,
// holding the assignments to the bag's variables, each drawn from its
// domain, that satisfy every constraint given to the bag. Each constraint
// goes to one bag holding its whole scope and is checked as soon as its
// last variable is set. It also returns the number of bag rows.
func bagTree(ctx context.Context, q *csp.Instance, d *Decomposition) (*relation.JoinTree, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	checks, err := assignChecks(q, d)
	if err != nil {
		return nil, 0, err
	}
	tree := &relation.JoinTree{Dom: q.Dom, Nodes: make([]relation.Node, d.NumBags())}
	if d.NumBags() > 0 {
		tree.Parent, _ = d.Rooted(0)
	}
	pl := relation.NewPoller(ctx)
	domainOf := domains(q)
	var vals [][]int
	var assign, idx, row, firstAt []int
	var rows int64
	for b, bag := range d.Bags {
		k := len(bag)
		vals, assign, idx = vals[:0], assign[:0], idx[:0]
		for _, v := range bag {
			vals = append(vals, domainOf(v))
			assign, idx = append(assign, 0), append(idx, 0)
		}
		// checks[b] is sorted by last: firstAt[i] is the first check whose
		// last variable is at position i or later.
		cs := checks[b]
		firstAt = firstAt[:0]
		for i := 0; i <= k; i++ {
			firstAt = append(firstAt, sort.Search(len(cs), func(c int) bool { return cs[c].last >= i }))
		}
		tab := relation.NewTable(k)
		if k == 0 {
			tab.AddDistinct(assign)
		}
		for i := 0; k > 0 && i >= 0; {
			if err := pl.Tick(); err != nil {
				return nil, 0, err
			}
			if idx[i] == len(vals[i]) {
				if i--; i >= 0 {
					idx[i]++
				}
				continue
			}
			assign[i] = vals[i][idx[i]]
			ok := true
			for _, c := range cs[firstAt[i]:firstAt[i+1]] {
				row = row[:0]
				for _, p := range c.pos {
					row = append(row, assign[p])
				}
				if !c.tab.Has(row) {
					ok = false
					break
				}
			}
			switch {
			case !ok:
				idx[i]++
			case i == k-1:
				tab.AddDistinct(assign)
				idx[i]++
			default:
				i++
				idx[i] = 0
			}
		}
		rows += int64(tab.Len())
		tree.Nodes[b] = relation.Node{Scope: bag, Rows: tab}
	}
	return tree, rows, nil
}

// assignChecks gives each constraint of q to the first bag, among those
// holding its first variable, that holds its whole scope, and sorts each
// bag's checks by their last position.
func assignChecks(q *csp.Instance, d *Decomposition) ([][]bagCheck, error) {
	// bagsOf[off[v]:off[v+1]] are the bags holding v.
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
	checks := make([][]bagCheck, len(d.Bags))
	var arena []int
	for _, con := range q.Constraints {
		lo := len(arena)
		home := -1
	bags:
		for _, b := range bagsOf[off[con.Scope[0]]:off[con.Scope[0]+1]] {
			arena = arena[:lo]
			for _, v := range con.Scope {
				i, found := slices.BinarySearch(d.Bags[b], v)
				if !found {
					continue bags
				}
				arena = append(arena, i)
			}
			home = int(b)
			break
		}
		if home < 0 {
			return nil, fmt.Errorf("treewidth: no bag contains scope %v", con.Scope)
		}
		pos := arena[lo:len(arena):len(arena)]
		checks[home] = append(checks[home], bagCheck{tab: con.Table, pos: pos, last: slices.Max(pos)})
	}
	for _, cs := range checks {
		slices.SortStableFunc(cs, func(a, b bagCheck) int { return a.last - b.last })
	}
	return checks, nil
}

// domains returns a lookup of each variable's domain: its values inside
// [0, Dom), each once, so that bag rows are distinct. The unrestricted
// variables share one slice.
func domains(q *csp.Instance) func(v int) []int {
	all := make([]int, q.Dom)
	for i := range all {
		all[i] = i
	}
	return func(v int) []int {
		if q.Domains == nil || q.Domains[v] == nil {
			return all
		}
		dom := slices.Clone(q.Domains[v])
		slices.Sort(dom)
		dom = slices.Compact(dom)
		lo, _ := slices.BinarySearch(dom, 0)
		hi, _ := slices.BinarySearch(dom, q.Dom)
		return dom[lo:hi]
	}
}
