package hypergraph

import (
	"fmt"
	"time"

	"csdb/internal/csp"
	"csdb/internal/obs"
	"csdb/internal/relation"
)

// This file lifts Yannakakis' algorithm from conjunctive queries to CSP
// instances: an α-acyclic instance is decided (and a solution extracted)
// in time polynomial in the instance size, per the acyclic-joins line of
// Section 6. The full reducer makes the constraint tables globally
// consistent along a join tree, after which a root-first pass assigns each
// hyperedge a tuple backtrack-free: every variable of an edge already
// assigned when the edge is reached is shared with its parent (join-tree
// connectedness), and the down pass guarantees the parent's chosen tuple
// keeps a matching tuple alive in every child.

// Observability handles for the acyclic CSP solver:
//
//	acyclic.solves        SolveAcyclicCSP calls that ran the reducer
//	acyclic.semijoins     semijoin steps across the up+down passes
//	acyclic.rows_loaded   constraint rows entering the reducer
//	acyclic.rows_reduced  rows surviving the full reducer
var (
	obsAcySolves      = obs.NewCounter("acyclic.solves")
	obsAcySemijoins   = obs.NewCounter("acyclic.semijoins")
	obsAcyRowsLoaded  = obs.NewCounter("acyclic.rows_loaded")
	obsAcyRowsReduced = obs.NewCounter("acyclic.rows_reduced")
)

// sharedPositions returns, for each variable occurring in both scopes, its
// position in a and its position in b (pairs aligned).
func sharedPositions(a, b []int) (inA, inB []int) {
	posB := make(map[int]int, len(b))
	for i, v := range b {
		posB[v] = i
	}
	for i, v := range a {
		if j, ok := posB[v]; ok {
			inA = append(inA, i)
			inB = append(inB, j)
		}
	}
	return inA, inB
}

// semijoin returns the ids of the rows of t (among tIDs) that agree with
// some row of s (among sIDs) on the shared variables, filtering tIDs in
// place. The projections of s are keyed in a relation.Table, so the probe
// allocates nothing per row.
func semijoin(tScope []int, t *csp.Table, tIDs []int32, sScope []int, s *csp.Table, sIDs []int32) []int32 {
	inT, inS := sharedPositions(tScope, sScope)
	keys := relation.NewTable(len(inS))
	proj := make([]int, len(inS))
	for _, id := range sIDs {
		row := s.Row(int(id))
		for c, j := range inS {
			proj[c] = row[j]
		}
		keys.Add(proj)
	}
	kept := tIDs[:0]
	for _, id := range tIDs {
		row := t.Row(int(id))
		for c, j := range inT {
			proj[c] = row[j]
		}
		if keys.Has(proj) {
			kept = append(kept, id)
		}
	}
	return kept
}

// SolveAcyclicCSP decides an α-acyclic CSP instance in polynomial time and
// returns a satisfying assignment when one exists. jt may be a join tree
// for the instance's constraint hypergraph (FromInstance ordering: one
// hyperedge per constraint, in constraint order) — a cached one, say; it is
// always validated against the live instance first, and recomputed by GYO
// when nil or invalid. An instance whose hypergraph is not α-acyclic is
// rejected with an error.
func SolveAcyclicCSP(p *csp.Instance, jt *JoinTree) (csp.Result, error) {
	start := time.Now()
	// NormalizeDistinct keeps constraint order and turns every scope into a
	// distinct-variable scope, so constraint i still matches hyperedge i.
	q := p.NormalizeDistinct()
	h := FromInstance(q)
	if jt == nil || h.ValidateJoinTree(jt) != nil {
		acyclic, fresh := h.GYO()
		if !acyclic {
			return csp.Result{}, fmt.Errorf("hypergraph: instance is not α-acyclic")
		}
		jt = fresh
	}
	obsAcySolves.Inc()

	finish := func(res csp.Result) csp.Result {
		res.Stats.Strategy = "acyclic"
		res.Stats.Duration = time.Since(start)
		return res
	}

	// Per-variable domain masks; an empty domain is unsatisfiable outright
	// (the variable cannot be assigned at all).
	domOK := make([][]bool, q.Vars)
	for v := 0; v < q.Vars; v++ {
		domOK[v] = make([]bool, q.Dom)
		any := false
		for _, val := range q.DomainOf(v) {
			if val >= 0 && val < q.Dom {
				domOK[v][val] = true
				any = true
			}
		}
		if !any {
			return finish(csp.Result{}), nil
		}
	}

	// Per-hyperedge working relations: scopes[i] and tabs[i] are constraint
	// i's (distinct-variable) scope and table, rows[i] the ids of its
	// surviving rows.
	m := len(q.Constraints)
	scopes := make([][]int, m)
	tabs := make([]*csp.Table, m)
	rows := make([][]int32, m)
	var loaded int64
	for i, con := range q.Constraints {
		scopes[i], tabs[i] = con.Scope, con.Table
		var kept []int32
	load:
		for t := 0; t < con.Table.Len(); t++ {
			row := con.Table.Row(t)
			for j, v := range con.Scope {
				if !domOK[v][row[j]] {
					continue load
				}
			}
			kept = append(kept, int32(t))
		}
		loaded += int64(len(kept))
		if len(kept) == 0 {
			return finish(csp.Result{}), nil
		}
		rows[i] = kept
	}

	sol := make([]int, q.Vars)
	for v := range sol {
		sol[v] = -1
	}

	if m > 0 {
		order := topoOrder(jt, m) // children before parents

		// Full reducer: up pass (parent ⋉ child), then down pass (child ⋉
		// parent). Effort is tallied locally and flushed once at the call
		// boundary, including on the early-UNSAT exit.
		var semijoins int64
		unsat := false
		for _, i := range order {
			if pa := jt.Parent[i]; pa >= 0 {
				rows[pa] = semijoin(scopes[pa], tabs[pa], rows[pa], scopes[i], tabs[i], rows[i])
				semijoins++
				if len(rows[pa]) == 0 {
					unsat = true
					break
				}
			}
		}
		if !unsat {
			for k := m - 1; k >= 0; k-- {
				i := order[k]
				if pa := jt.Parent[i]; pa >= 0 {
					rows[i] = semijoin(scopes[i], tabs[i], rows[i], scopes[pa], tabs[pa], rows[pa])
					semijoins++
				}
			}
		}
		obsAcySemijoins.Add(semijoins)
		if obs.Enabled() {
			obsAcyRowsLoaded.Add(loaded)
			var reduced int64
			for _, rel := range rows {
				reduced += int64(len(rel))
			}
			obsAcyRowsReduced.Add(reduced)
		}
		if unsat {
			return finish(csp.Result{}), nil
		}

		// Backtrack-free extraction, root first (reverse of the bottom-up
		// order, so every edge is reached after its parent).
		for k := m - 1; k >= 0; k-- {
			i := order[k]
			var picked []int
		candidates:
			for _, id := range rows[i] {
				row := tabs[i].Row(int(id))
				for j, v := range scopes[i] {
					if sol[v] >= 0 && sol[v] != row[j] {
						continue candidates
					}
				}
				picked = row
				break
			}
			if picked == nil {
				return csp.Result{}, fmt.Errorf("hypergraph: acyclic extraction found no compatible tuple (internal error)")
			}
			for j, v := range scopes[i] {
				sol[v] = picked[j]
			}
		}
	}

	// Variables in no constraint take any value from their domain.
	for v := range sol {
		if sol[v] < 0 {
			sol[v] = q.DomainOf(v)[0]
		}
	}
	if !p.Satisfies(sol) {
		return csp.Result{}, fmt.Errorf("hypergraph: acyclic solver produced an invalid assignment (internal error)")
	}
	return finish(csp.Result{Found: true, Solution: sol}), nil
}
