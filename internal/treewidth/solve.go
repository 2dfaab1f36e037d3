package treewidth

import (
	"fmt"
	"sort"

	"csdb/internal/csp"
	"csdb/internal/graph"
)

// This file implements the algorithmic content of Theorem 6.2: a CSP
// instance whose primal (Gaifman) graph has a tree decomposition of width w
// is solvable in time O(#bags · d^(w+1) · poly) by dynamic programming over
// the decomposition — polynomial for fixed w.

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

// SolveDecomposed decides the instance by DP over the given tree
// decomposition of its primal graph and returns a solution when one exists.
// The decomposition must be valid for PrimalGraph(p); every constraint
// scope, being a clique of the primal graph, fits inside some bag.
func SolveDecomposed(p *csp.Instance, d *Decomposition) (csp.Result, error) {
	q := p.NormalizeDistinct()
	if q.Vars == 0 {
		return csp.Result{Found: true, Solution: []int{}}, nil
	}
	if err := d.Validate(PrimalGraph(q)); err != nil {
		return csp.Result{}, fmt.Errorf("treewidth: invalid decomposition: %w", err)
	}

	// Assign each constraint to one bag containing its whole scope.
	consAt := make([][]*csp.Constraint, d.NumBags())
	for _, con := range q.Constraints {
		bi := d.BagContaining(con.Scope)
		if bi < 0 {
			return csp.Result{}, fmt.Errorf("treewidth: no bag contains scope %v", con.Scope)
		}
		consAt[bi] = append(consAt[bi], con)
	}

	parent, order := d.Rooted(0)

	// children lists per bag.
	children := make([][]int, d.NumBags())
	for b, pa := range parent {
		if pa >= 0 {
			children[pa] = append(children[pa], b)
		}
	}

	// For each bag, enumerate locally consistent assignments, filter against
	// children's surviving assignments (projected to the shared variables),
	// and remember, for solution extraction, one compatible child assignment
	// per surviving parent assignment.
	type bagTable struct {
		assigns [][]int          // surviving assignments, aligned with Bags[b]
		keyIdx  map[string][]int // projection key on shared-with-parent vars -> indices
		// chosen[i][c] = index into children's assigns compatible with
		// assignment i, for child children[b][c].
		chosen [][]int
	}
	tables := make([]*bagTable, d.NumBags())

	sharedWithParent := make([][]int, d.NumBags()) // positions in bag of vars shared with parent
	for b, pa := range parent {
		if pa < 0 {
			continue
		}
		paSet := make(map[int]bool)
		for _, v := range d.Bags[pa] {
			paSet[v] = true
		}
		for i, v := range d.Bags[b] {
			if paSet[v] {
				sharedWithParent[b] = append(sharedWithParent[b], i)
			}
		}
	}

	nodes := int64(0)
	for _, b := range order { // bottom-up
		bag := d.Bags[b]
		tbl := &bagTable{keyIdx: make(map[string][]int)}
		// Shared positions with each child, from the child's perspective we
		// use the child's keyIdx; compute the projection of this bag's
		// assignment onto the intersection in the child's variable order.
		childProj := make([][][2]int, len(children[b])) // list of (bagPos, n/a) pairs... see below
		for ci, c := range children[b] {
			// For the child's sharedWithParent positions (in child bag
			// order), find the matching positions in this bag.
			posInBag := make(map[int]int)
			for i, v := range bag {
				posInBag[v] = i
			}
			var pairs [][2]int
			for _, cpos := range sharedWithParent[c] {
				v := d.Bags[c][cpos]
				pairs = append(pairs, [2]int{posInBag[v], cpos})
			}
			childProj[ci] = pairs
		}

		assign := make([]int, len(bag))
		var enumerate func(i int)
		enumerate = func(i int) {
			if i == len(bag) {
				nodes++
				// Check constraints assigned to this bag.
				for _, con := range consAt[b] {
					row := make([]int, len(con.Scope))
					for k, v := range con.Scope {
						row[k] = assign[indexOf(bag, v)]
					}
					if !con.Table.Has(row) {
						return
					}
				}
				// Check compatibility with every child.
				chosen := make([]int, len(children[b]))
				for ci, c := range children[b] {
					key := projKeyPairs(assign, childProj[ci])
					cands := tables[c].keyIdx[key]
					if len(cands) == 0 {
						return
					}
					chosen[ci] = cands[0]
				}
				idx := len(tbl.assigns)
				tbl.assigns = append(tbl.assigns, append([]int(nil), assign...))
				tbl.chosen = append(tbl.chosen, chosen)
				k := projKeyPositions(assign, sharedWithParent[b])
				tbl.keyIdx[k] = append(tbl.keyIdx[k], idx)
				return
			}
			v := bag[i]
			for _, val := range q.DomainOf(v) {
				assign[i] = val
				enumerate(i + 1)
			}
		}
		enumerate(0)
		tables[b] = tbl
		if len(tbl.assigns) == 0 {
			return csp.Result{Stats: csp.Stats{Nodes: nodes}}, nil
		}
	}

	// Extract a solution top-down.
	sol := make([]int, q.Vars)
	for i := range sol {
		sol[i] = -1
	}
	var fill func(b, idx int)
	fill = func(b, idx int) {
		for i, v := range d.Bags[b] {
			sol[v] = tables[b].assigns[idx][i]
		}
		for ci, c := range children[b] {
			// The recorded child choice was compatible when the parent
			// assignment was admitted; but we must re-match because the
			// recorded choice corresponds to THIS assignment index.
			fill(c, tables[b].chosen[idx][ci])
		}
	}
	fill(0, 0)
	for i := range sol {
		if sol[i] < 0 {
			sol[i] = firstVal(q, i)
		}
	}
	return csp.Result{Found: true, Solution: sol, Stats: csp.Stats{Nodes: nodes}}, nil
}

func firstVal(p *csp.Instance, v int) int {
	dom := p.DomainOf(v)
	if len(dom) == 0 {
		return 0
	}
	return dom[0]
}

// Solve decomposes the primal graph with the best heuristic and runs the DP.
func Solve(p *csp.Instance) (csp.Result, error) {
	d := BestHeuristic(PrimalGraph(p))
	return SolveDecomposed(p, d)
}

func indexOf(sorted []int, v int) int {
	i := sort.SearchInts(sorted, v)
	if i < len(sorted) && sorted[i] == v {
		return i
	}
	return -1
}

func projKeyPairs(assign []int, pairs [][2]int) string {
	b := make([]byte, 0, len(pairs)*3)
	for _, p := range pairs {
		b = appendInt(b, assign[p[0]])
	}
	return string(b)
}

func projKeyPositions(assign []int, positions []int) string {
	b := make([]byte, 0, len(positions)*3)
	for _, p := range positions {
		b = appendInt(b, assign[p])
	}
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		b = append(b, '0')
	}
	for v > 0 {
		b = append(b, byte('0'+v%10))
		v /= 10
	}
	return append(b, ',')
}
