package dispatch

import (
	"fmt"
	"math/big"
	"sort"

	"csdb/internal/consistency"
	"csdb/internal/csp"
	"csdb/internal/hypergraph"
	"csdb/internal/relation"
	"csdb/internal/treewidth"
)

// The route differential's oracles: the four private kernels the join-tree
// engine replaced, kept as they were (minus telemetry and the per-solve
// witness validation) so the engine's routes are checked against
// independent code: Freuder's directional arc consistency on [][]bool
// masks, Yannakakis' reducer on int32 row ids over the reference GYO's join
// tree, and the string-keyed bag DPs for solving and counting.

// oracleSolveTree solves a tree-structured binary instance backtrack-free:
// directional arc consistency from the leaves to a root, then a single
// greedy top-down assignment pass (Freuder 1982). Returns an error when the
// instance is not tree-structured.
func oracleSolveTree(p *csp.Instance) (csp.Result, error) {
	q := p.NormalizeDistinct().Consolidate()
	if !consistency.IsTreeStructured(q) {
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

// oracleSharedPositions returns, for each variable occurring in both
// scopes, its position in a and its position in b (pairs aligned).
func oracleSharedPositions(a, b []int) (inA, inB []int) {
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

// oracleSemijoin returns the ids of the rows of t (among tIDs) that agree
// with some row of s (among sIDs) on the shared variables, filtering tIDs in
// place. The projections of s are keyed in a relation.Table, so the probe
// allocates nothing per row.
func oracleSemijoin(tScope []int, t *csp.Table, tIDs []int32, sScope []int, s *csp.Table, sIDs []int32) []int32 {
	inT, inS := oracleSharedPositions(tScope, sScope)
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

// oracleSolveAcyclic decides an α-acyclic CSP instance in polynomial time and
// returns a satisfying assignment when one exists, over the reference GYO's
// join tree (oracleGYO). An instance whose hypergraph is not α-acyclic is
// rejected with an error.
func oracleSolveAcyclic(p *csp.Instance) (csp.Result, error) {
	// NormalizeDistinct keeps constraint order and turns every scope into a
	// distinct-variable scope, so constraint i still matches hyperedge i.
	q := p.NormalizeDistinct()
	h := hypergraph.FromInstance(q)
	acyclic, jt := oracleGYO(h.N, h.Edges)
	if !acyclic {
		return csp.Result{}, fmt.Errorf("hypergraph: instance is not α-acyclic")
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
			return csp.Result{}, nil
		}
	}

	// Per-hyperedge working relations: scopes[i] and tabs[i] are constraint
	// i's (distinct-variable) scope and table, rows[i] the ids of its
	// surviving rows.
	m := len(q.Constraints)
	scopes := make([][]int, m)
	tabs := make([]*csp.Table, m)
	rows := make([][]int32, m)
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
		if len(kept) == 0 {
			return csp.Result{}, nil
		}
		rows[i] = kept
	}

	sol := make([]int, q.Vars)
	for v := range sol {
		sol[v] = -1
	}

	if m > 0 {
		order := oracleTopoOrder(jt, m) // children before parents

		// Full reducer: up pass (parent ⋉ child), then down pass (child ⋉
		// parent).
		unsat := false
		for _, i := range order {
			if pa := jt.Parent[i]; pa >= 0 {
				rows[pa] = oracleSemijoin(scopes[pa], tabs[pa], rows[pa], scopes[i], tabs[i], rows[i])
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
					rows[i] = oracleSemijoin(scopes[i], tabs[i], rows[i], scopes[pa], tabs[pa], rows[pa])
				}
			}
		}
		if unsat {
			return csp.Result{}, nil
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
	return csp.Result{Found: true, Solution: sol}, nil
}

// oracleTopoOrder returns the edges of a join tree with children before
// parents.
func oracleTopoOrder(jt *hypergraph.JoinTree, m int) []int {
	children := make([][]int, m)
	for i, p := range jt.Parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	var order []int
	var rec func(i int)
	rec = func(i int) {
		for _, c := range children[i] {
			rec(c)
		}
		order = append(order, i)
	}
	rec(jt.Root)
	return order
}

// oracleSolveDecomposed decides the instance by DP over the given tree
// decomposition of its primal graph and returns a solution when one exists.
// The decomposition must be valid for PrimalGraph(p); every constraint
// scope, being a clique of the primal graph, fits inside some bag.
func oracleSolveDecomposed(p *csp.Instance, d *treewidth.Decomposition) (csp.Result, error) {
	q := p.NormalizeDistinct()
	if q.Vars == 0 {
		return csp.Result{Found: true, Solution: []int{}}, nil
	}
	if err := d.Validate(treewidth.PrimalGraph(q)); err != nil {
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
						row[k] = assign[oracleIndexOf(bag, v)]
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
			sol[i] = oracleFirstVal(q, i)
		}
	}
	return csp.Result{Found: true, Solution: sol, Stats: csp.Stats{Nodes: nodes}}, nil
}

func oracleFirstVal(p *csp.Instance, v int) int {
	dom := p.DomainOf(v)
	if len(dom) == 0 {
		return 0
	}
	return dom[0]
}

func oracleIndexOf(sorted []int, v int) int {
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

// oracleCountDecomposed counts the solutions of the instance by dynamic
// programming over a tree decomposition of its primal graph — the counting
// extension of Theorem 6.2: #CSP is computable in polynomial time on
// bounded-treewidth instances (whereas it is #P-hard in general). Counts
// are exact big integers, since solution counts grow as d^n.
func oracleCountDecomposed(p *csp.Instance, d *treewidth.Decomposition) (*big.Int, error) {
	q := p.NormalizeDistinct()
	if q.Vars == 0 {
		return big.NewInt(1), nil
	}
	if err := d.Validate(treewidth.PrimalGraph(q)); err != nil {
		return nil, fmt.Errorf("treewidth: invalid decomposition: %w", err)
	}

	consAt := make([][]*csp.Constraint, d.NumBags())
	for _, con := range q.Constraints {
		bi := d.BagContaining(con.Scope)
		if bi < 0 {
			return nil, fmt.Errorf("treewidth: no bag contains scope %v", con.Scope)
		}
		consAt[bi] = append(consAt[bi], con)
	}

	parent, order := d.Rooted(0)
	children := make([][]int, d.NumBags())
	for b, pa := range parent {
		if pa >= 0 {
			children[pa] = append(children[pa], b)
		}
	}

	// sharedWithParent[b]: positions (in bag b) of variables shared with
	// the parent bag.
	sharedWithParent := make([][]int, d.NumBags())
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

	// For each bag, after processing: counts keyed by the projection of the
	// bag assignment onto the shared-with-parent variables. Each count
	// already excludes double counting: variables shared with the parent
	// are "owned" by the parent, so the child's contribution divides out...
	// more precisely, the child table maps shared-projection -> number of
	// assignments of (subtree variables \ shared variables) consistent
	// below, and the parent multiplies them in.
	childTables := make([]map[string]*big.Int, d.NumBags())

	for _, b := range order { // bottom-up
		bag := d.Bags[b]
		table := make(map[string]*big.Int)

		assign := make([]int, len(bag))
		var enumerate func(i int)
		enumerate = func(i int) {
			if i == len(bag) {
				for _, con := range consAt[b] {
					row := make([]int, len(con.Scope))
					for k, v := range con.Scope {
						row[k] = assign[oracleIndexOf(bag, v)]
					}
					if !con.Table.Has(row) {
						return
					}
				}
				total := big.NewInt(1)
				for ci, c := range children[b] {
					_ = ci
					key := childKeyFromParent(assign, bag, d.Bags[c], sharedWithParent[c])
					sub, ok := childTables[c][key]
					if !ok {
						return // some child has no consistent extension
					}
					total.Mul(total, sub)
				}
				key := projKeyPositions(assign, sharedWithParent[b])
				if acc, ok := table[key]; ok {
					acc.Add(acc, total)
				} else {
					table[key] = total
				}
				return
			}
			v := bag[i]
			for _, val := range q.DomainOf(v) {
				assign[i] = val
				enumerate(i + 1)
			}
		}
		enumerate(0)
		childTables[b] = table
		if len(table) == 0 && parent[b] >= 0 {
			return big.NewInt(0), nil
		}
	}

	root := order[len(order)-1]
	total := big.NewInt(0)
	for _, c := range childTables[root] {
		total.Add(total, c)
	}
	// Variables in no bag cannot exist (Validate guarantees coverage), so
	// the root sum is the full solution count... except that the bag-level
	// counting above counts each root-bag assignment once per projection
	// key: keys at the root project onto sharedWithParent[root], which is
	// empty, so all assignments accumulate under one key. Correct as is.
	return total, nil
}

// childKeyFromParent computes the child's shared-projection key from the
// parent bag's assignment.
func childKeyFromParent(assign []int, parentBag, childBag []int, childSharedPos []int) string {
	b := make([]byte, 0, len(childSharedPos)*3)
	for _, cpos := range childSharedPos {
		v := childBag[cpos]
		b = appendInt(b, assign[oracleIndexOf(parentBag, v)])
	}
	return string(b)
}
