package relation

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sync"

	"csdb/internal/obs"
)

// The join-tree engine: the one algorithm behind every bounded-width route
// of Section 6 and behind acyclic conjunctive-query evaluation. A join
// tree's nodes have scopes of distinct variables with the connectedness
// property — a variable shared by two nodes occurs in every node on the
// tree path between them — and each node holds tables (atoms) over subsets
// of its scope.
//
// The engine's one pass is Proposition 6.1's reading of Theorem 6.2's DP.
// Leaves first, a node joins its tables with its children's messages (its
// local join) and sends its parent the projection of that join onto the
// variables it shares with the parent and onto the caller's keep
// variables. A message is exact: it is the projection of the join of every
// table in the node's subtree. So no bag is ever materialised, only what it
// passes up; a node costs what its joins produce, d^|scope| rows only in
// the worst case. Every join step and projection runs the package's
// hash-join kernel (join.go).
//
// Solve runs the pass and extracts a solution root first, scanning each
// node's local join under its parent's assignment: the messages are exact,
// so a matching row exists and the extraction never backtracks. Count runs
// the pass with weights, each row carrying the number of ways it extends
// over the tables joined into it. Join returns the pass's answer on the
// keep variables; a multiway natural join (JoinAll) is Join over a
// one-node tree that holds every input. A variable that no table covers
// is free: it takes the value 0, and multiplies a count by Dom. Reduce is
// Yannakakis' full reducer, semijoins up the tree and then down, which
// conjunctive-query evaluation runs before Join so that no local join
// holds a row no answer uses.
//
// Freuder's tree algorithm is the engine run over binary constraints (the
// width-1 case of Theorem 6.2), an α-acyclic instance runs it over GYO's
// join tree, and Theorem 6.2's DP runs it over a tree decomposition's bags.
// Each caller builds the tree; the engine trusts its connectedness and
// checks only that the parents form a forest.

// JoinTree is the engine's input: nodes joined by a parent array.
type JoinTree struct {
	// Dom bounds the values: every row value lies in [0, Dom). Dom 0 sets
	// no bound on values: every key is hashed, so rows may hold any ints,
	// and a variable that no table covers has no value (Solve finds no
	// solution, Count returns 0).
	Dom int
	// Nodes are the tree's nodes.
	Nodes []Node
	// Parent[i] is node i's parent, -1 at a root. A forest is allowed: its
	// trees share no variable.
	Parent []int
}

// Node is one node of a join tree: a scope of distinct variables and the
// tables over subsets of it.
type Node struct {
	Scope []int
	Atoms []Atom
}

// Atom is a table whose columns are the variables of Scope, which are
// distinct.
type Atom struct {
	Scope []int
	Rows  *Table
}

var errNotForest = errors.New("relation: join tree parents do not form a forest")

// rel is one relation of the pass: rows over distinct variables and, when
// counting, each row's weight (nil: one each). Weights are never changed
// once a rel holds them, so rels share them.
type rel struct {
	vars []int
	rows *Table
	w    []*big.Int
}

// one is every unweighted row's weight, and unit the 0-ary table holding
// the empty row, the join of no tables. Neither is ever changed.
var one, unit = big.NewInt(1), &Table{n: 1}

// weight returns the weight of x's row r.
func (x *rel) weight(r int) *big.Int {
	if x.w == nil {
		return one
	}
	return x.w[r]
}

// pass is one run's state: the forest (order lists the nodes roots first),
// the nodes' local joins and messages, the arenas the pass's rows are
// carved from, capped so that appends never reach them, and scratch. When
// Join runs a single tree, final is its keep list: if the root's last join
// step comes out with exactly keep's variables in keep's order, it writes
// its rows into an array of their own, answer, which Join hands over
// instead of copying the answer out of the arena.
type pass struct {
	t                   *JoinTree
	pl                  Poller
	count, solve        bool
	order, kid, sib     []int
	local, msg, in      []rel
	mark                []int32 // mark[v] == stamp: v is marked for the current step
	stamp               int32
	keep                []bool
	vals, vars, cols    []int
	tabs                []Table
	w                   []*big.Int
	join                joinTable
	heads               []int32
	final               []int
	answer              *Table
	loaded, steps, sent int64
}

// passes recycles finished passes, so that a small run allocates little
// beyond its answer. A pass whose arena grew past 2^20 values is left to
// the collector, so one exploding join pins no memory.
var passes = sync.Pool{New: func() any { return new(pass) }}

// resize returns s with length n, reusing its array when it is big enough.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// carve returns the arena's values from start on, capped.
func carve(arena []int, start int) []int { return arena[start:len(arena):len(arena)] }

// newPass orders the forest and loads the tables, marking the keep
// variables. It reports false when some table is empty. The caller
// releases the pass.
func (t *JoinTree) newPass(ctx context.Context, keep []int) (*pass, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	m := len(t.Parent)
	if len(t.Nodes) != m {
		return nil, false, errNotForest
	}
	p := passes.Get().(*pass)
	p.t, p.pl, p.count, p.solve = t, *NewPoller(ctx), false, false
	p.stamp, p.loaded, p.steps, p.sent = 0, 0, 0, 0
	// Breadth-first from the roots; a parent out of range, or a cycle that
	// no root reaches, is not a forest. Node i's children are kid[i]-1,
	// sib[kid[i]-1]-1 and so on, 0 ending the list.
	p.kid, p.sib, p.order = resize(p.kid, m), resize(p.sib, m), p.order[:0]
	clear(p.kid)
	for i, pa := range t.Parent {
		switch {
		case pa < -1 || pa >= m:
			p.release()
			return nil, false, errNotForest
		case pa < 0:
			p.order = append(p.order, i)
		default:
			p.sib[i], p.kid[pa] = p.kid[pa], i+1
		}
	}
	for k := 0; k < len(p.order); k++ {
		for c := p.kid[p.order[k]]; c > 0; c = p.sib[c-1] {
			p.order = append(p.order, c-1)
		}
	}
	if len(p.order) != m {
		p.release()
		return nil, false, errNotForest
	}
	vars, values, ok := 0, 0, true
	for _, v := range keep {
		vars = max(vars, v+1)
	}
	for i := range t.Nodes {
		for _, v := range t.Nodes[i].Scope {
			vars = max(vars, v+1)
		}
		for _, a := range t.Nodes[i].Atoms {
			p.loaded += int64(a.Rows.n)
			values += a.Rows.n * a.Rows.k
			ok = ok && a.Rows.n > 0
		}
	}
	p.mark, p.keep = resize(p.mark, vars), resize(p.keep, vars)
	clear(p.mark)
	clear(p.keep)
	for _, v := range keep {
		p.keep[v] = true
	}
	// A pass's rows are about as many as its tables': a pass the pool did
	// not keep sizes its arena once.
	p.vals, p.vars, p.tabs, p.w = slices.Grow(p.vals[:0], values), p.vars[:0], p.tabs[:0], p.w[:0]
	return p, ok, nil
}

// release returns p, which the caller no longer reads, to the pool.
func (p *pass) release() {
	if p == nil || cap(p.vals) > 1<<20 {
		return
	}
	clear(p.local[:cap(p.local)])
	clear(p.msg[:cap(p.msg)])
	clear(p.in[:cap(p.in)])
	clear(p.w[:cap(p.w)])
	clear(p.tabs[:cap(p.tabs)])
	p.t, p.pl, p.join.data, p.final, p.answer = nil, Poller{}, nil, nil, nil
	passes.Put(p)
}

// flush records one run's effort in the relation.jointree.* counters.
func (p *pass) flush() {
	if obs.Enabled() {
		obsTreeSolves.Inc()
		obsTreeSemijoins.Add(p.steps)
		obsTreeRowsLoaded.Add(p.loaded)
		obsTreeRowsReduced.Add(p.sent)
	}
}

// run runs the pass, keeping every local join when solve is set and
// carrying weights when count is set. It reports false when the join of
// the tables is empty. The caller releases the pass.
func (t *JoinTree) run(ctx context.Context, keep []int, count, solve bool) (*pass, bool, error) {
	p, ok, err := t.newPass(ctx, keep)
	if p != nil {
		defer p.flush()
	}
	if !ok {
		return p, false, err
	}
	p.count, p.solve, p.msg, p.local = count, solve, resize(p.msg, len(t.Nodes)), resize(p.local, len(t.Nodes))
	if len(keep) > 0 && (len(p.order) < 2 || t.Parent[p.order[1]] >= 0) {
		p.final = keep
	}
	for k := len(p.order) - 1; k >= 0; k-- {
		i := p.order[k]
		l, err := p.localJoin(i)
		if err != nil || l.rows.n == 0 {
			return p, false, err
		}
		if solve {
			p.local[i] = l
		}
		if p.msg[i], err = p.project(&l, t.Parent[i], nil); err != nil {
			return p, false, err
		}
		if t.Parent[i] >= 0 {
			p.sent += int64(p.msg[i].rows.n)
		}
	}
	return p, true, nil
}

// localJoin joins node i's tables with its children's messages. It starts
// from the widest input, the smaller on a tie, and then joins the input
// sharing the most variables with the result so far, the smaller on a tie,
// so that a connected node takes no product it can avoid. Unless the pass
// keeps the local joins for extraction, it projects away each variable as
// soon as neither the message nor an input still to join needs it. The
// join of no inputs is the 0-ary relation holding the empty row.
func (p *pass) localJoin(i int) (rel, error) {
	in := p.in[:0]
	for _, a := range p.t.Nodes[i].Atoms {
		in = append(in, rel{vars: a.Scope, rows: a.Rows})
	}
	for c := p.kid[i]; c > 0; c = p.sib[c-1] {
		in = append(in, p.msg[c-1])
	}
	p.in = in
	if len(in) == 0 {
		return rel{rows: unit}, nil
	}
	first := 0
	for j, x := range in {
		if len(x.vars) > len(in[first].vars) || len(x.vars) == len(in[first].vars) && x.rows.n < in[first].rows.n {
			first = j
		}
	}
	cur := in[first]
	in[first] = in[len(in)-1]
	in = in[:len(in)-1]
	for {
		var err error
		if !p.solve {
			if cur, err = p.project(&cur, p.t.Parent[i], in); err != nil {
				return rel{}, err
			}
		}
		if len(in) == 0 || cur.rows.n == 0 {
			return cur, nil
		}
		p.stamp++
		for _, v := range cur.vars {
			p.mark[v] = p.stamp
		}
		best, most := 0, -1
		for j := range in {
			shared := 0
			for _, v := range in[j].vars {
				if p.mark[v] == p.stamp {
					shared++
				}
			}
			if shared > most || shared == most && in[j].rows.n < in[best].rows.n {
				best, most = j, shared
			}
		}
		// A lone root's last step may yield Join's answer.
		var order []int
		if len(in) == 1 && p.t.Parent[i] < 0 {
			order = p.final
		}
		if cur, err = p.joinRels(&cur, &in[best], order); err != nil {
			return rel{}, err
		}
		in[best] = in[len(in)-1]
		in = in[:len(in)-1]
	}
}

// columns returns the positions in a and in b of the variables they share,
// and the positions in b of b's other variables.
func (p *pass) columns(a, b []int) (aCols, bCols, bOnly []int) {
	k := len(b)
	p.cols = resize(p.cols, 3*k)
	aCols, bCols, bOnly = p.cols[:0:k], p.cols[k:k:2*k], p.cols[2*k:2*k]
	for j, v := range b {
		if c := slices.Index(a, v); c >= 0 {
			aCols, bCols = append(aCols, c), append(bCols, j)
		} else {
			bOnly = append(bOnly, j)
		}
	}
	return aCols, bCols, bOnly
}

// leads reports whether vars are the first variables of order, in order.
func leads(order, vars []int) bool {
	return len(vars) <= len(order) && slices.Equal(order[:len(vars)], vars)
}

// joinRels returns the natural join of a and b. When one side's variables
// all lie in the other's, the join is the semijoin of the wider side by
// the narrower; otherwise it builds on the smaller side, unless order is
// set and only the other side's variables lead it: then it probes with that
// side. A join whose variables come out as order, Join's keep list, writes
// its rows into an array outside the arena, p.answer.
func (p *pass) joinRels(a, b *rel, order []int) (rel, error) {
	if len(b.vars) > len(a.vars) || len(b.vars) == len(a.vars) && b.rows.n > a.rows.n {
		a, b = b, a
	}
	aCols, bCols, bOnly := p.columns(a.vars, b.vars)
	if len(bOnly) == 0 {
		return p.semijoin(a, b, aCols, bCols)
	}
	if b.rows.n > a.rows.n || order != nil && !leads(order, a.vars) && leads(order, b.vars) {
		a, b = b, a
		aCols, bCols, bOnly = p.columns(a.vars, b.vars)
	}
	if err := buildJoinTable(&p.pl, &p.join, b.rows, bCols, p.t.Dom); err != nil {
		return rel{}, err
	}
	p.heads = resize(p.heads, a.rows.n)
	vstart := len(p.vars)
	p.vars = append(p.vars, a.vars...)
	for _, j := range bOnly {
		p.vars = append(p.vars, b.vars[j])
	}
	answer := order != nil && slices.Equal(p.vars[vstart:], order)
	start, dst := len(p.vals), p.vals
	if answer {
		dst = nil
	}
	vals, n, err := joinProbe(&p.pl, &p.join, a.rows, aCols, bOnly, p.heads, dst)
	if err != nil {
		return rel{}, err
	}
	out := rel{vars: carve(p.vars, vstart)}
	if answer {
		p.tabs = append(p.tabs, Table{k: len(out.vars), n: n, data: vals})
		p.answer = &p.tabs[len(p.tabs)-1]
		out.rows = p.answer
	} else {
		p.vals = vals
		out.rows = p.table(len(out.vars), n, start)
	}
	if p.count && (a.w != nil || b.w != nil) {
		for r := range a.rows.n {
			for id := p.heads[r]; id >= 0; id = p.join.next[id] {
				out.w = append(out.w, p.product(a, r, b, int(id)))
			}
		}
	}
	p.steps++
	return out, nil
}

// semijoin keeps the rows of a whose values on aCols match some row of b
// on bCols. Until a row fails to match nothing is written, so a semijoin
// that keeps every row returns a's rows themselves. When counting (b's
// variables then all lie in a's, so a row matches one row of b), a kept
// row's weight is multiplied by its match's.
func (p *pass) semijoin(a, b *rel, aCols, bCols []int) (rel, error) {
	if err := buildJoinTable(&p.pl, &p.join, b.rows, bCols, p.t.Dom); err != nil {
		return rel{}, err
	}
	out, start, n := rel{vars: a.vars, rows: a.rows}, -1, 0
	for r := range a.rows.n {
		if err := p.pl.Tick(); err != nil {
			return rel{}, err
		}
		id := p.join.head(a.rows.data, r*a.rows.k, aCols)
		switch {
		case id < 0 && start < 0:
			start = len(p.vals)
			p.vals = append(p.vals, a.rows.data[:r*a.rows.k]...)
		case id >= 0 && start >= 0:
			p.vals = append(p.vals, a.rows.Row(r)...)
		}
		if id >= 0 && p.count && (a.w != nil || b.w != nil) {
			out.w = append(out.w, p.product(a, r, b, int(id)))
		}
		if id >= 0 {
			n++
		}
	}
	if start >= 0 {
		out.rows = p.table(a.rows.k, n, start)
	}
	p.steps++
	return out, nil
}

// product returns the weight of the join of a's row r and b's row s.
func (p *pass) product(a *rel, r int, b *rel, s int) *big.Int {
	switch {
	case a.w == nil:
		return b.w[s]
	case b.w == nil:
		return a.w[r]
	}
	return new(big.Int).Mul(a.w[r], b.w[s])
}

// project returns the projection of x onto the variables a message from
// its node needs once the inputs in rest are joined: those kept, those of
// parent's scope (none at a root) and those of rest. Its rows come in
// order of first occurrence in x, each weighing the sum of the weights of
// the rows it projects.
func (p *pass) project(x *rel, parent int, rest []rel) (rel, error) {
	p.stamp++
	if parent >= 0 {
		for _, v := range p.t.Nodes[parent].Scope {
			p.mark[v] = p.stamp
		}
	}
	for _, r := range rest {
		for _, v := range r.vars {
			p.mark[v] = p.stamp
		}
	}
	cols, vstart := p.cols[:0], len(p.vars)
	for j, v := range x.vars {
		if p.mark[v] == p.stamp || p.keep[v] {
			cols = append(cols, j)
			p.vars = append(p.vars, v)
		}
	}
	if p.cols = cols; len(cols) == len(x.vars) {
		p.vars = p.vars[:vstart]
		return *x, nil
	}
	// Rows with equal projections share a chain of the kernel's index, and
	// a row that opens its chain is a new row of the projection.
	if err := buildJoinTable(&p.pl, &p.join, x.rows, cols, p.t.Dom); err != nil {
		return rel{}, err
	}
	out, start, n := rel{vars: carve(p.vars, vstart)}, len(p.vals), 0
	p.heads = resize(p.heads, x.rows.n) // the projection's row of each row
	for r := range x.rows.n {
		if prev := p.join.next[r]; prev >= 0 {
			p.heads[r] = p.heads[prev]
			if p.count {
				w := out.w[p.heads[r]]
				w.Add(w, x.weight(r))
			}
			continue
		}
		p.heads[r] = int32(n)
		n++
		for _, j := range cols {
			p.vals = append(p.vals, x.rows.Row(r)[j])
		}
		if p.count {
			out.w = append(out.w, new(big.Int).Set(x.weight(r)))
		}
	}
	out.rows = p.table(len(cols), n, start)
	return out, nil
}

// table returns a table of n rows over k columns, carved from the arena
// from start on. Tables are never changed once made, so a table that
// outlives a move of the tabs array stays valid.
func (p *pass) table(k, n, start int) *Table {
	p.tabs = append(p.tabs, Table{k: k, n: n, data: carve(p.vals, start)})
	return &p.tabs[len(p.tabs)-1]
}

// Solve runs the pass and extracts a solution root first. It returns an
// assignment of vars variables, 0 on every variable no table covers;
// whether one exists (the join of the tables is non-empty, and so is Dom
// if a variable lies in no table); and the number of message rows the
// nodes sent their parents. The error is
// ctx's, or reports a parent array that is not a forest or (for a tree
// without the connectedness property) an extraction that found no
// compatible row.
func (t *JoinTree) Solve(ctx context.Context, vars int) ([]int, bool, int64, error) {
	p, ok, err := t.run(ctx, nil, false, true)
	defer p.release()
	if !ok {
		if p == nil {
			return nil, false, 0, err
		}
		return nil, false, p.sent, err
	}
	sol := make([]int, vars)
	for v := range sol {
		sol[v] = -1
	}
	for _, i := range p.order {
		// By connectedness, the variables of l assigned before it are its
		// parent's, and l holds a row matching the parent's.
		l, picked := &p.local[i], -1
	rows:
		for r := range l.rows.n {
			if err := p.pl.Tick(); err != nil {
				return nil, false, p.sent, err
			}
			for j, v := range l.vars {
				if sol[v] >= 0 && sol[v] != l.rows.Row(r)[j] {
					continue rows
				}
			}
			picked = r
			break
		}
		if picked < 0 {
			return nil, false, p.sent, errors.New("relation: join tree extraction found no compatible row (the tree lacks connectedness)")
		}
		for j, v := range l.vars {
			sol[v] = l.rows.Row(picked)[j]
		}
	}
	for v := range sol {
		if sol[v] < 0 && t.Dom == 0 {
			return nil, false, p.sent, nil
		}
		sol[v] = max(sol[v], 0)
	}
	return sol, true, p.sent, nil
}

// Count returns the number of assignments to the nodes' variables that
// every table holds: the pass run with weights, times Dom for each free
// variable. The error is ctx's, or reports a parent array that is not a
// forest.
func (t *JoinTree) Count(ctx context.Context) (*big.Int, error) {
	p, ok, err := t.run(ctx, nil, true, false)
	defer p.release()
	total := new(big.Int)
	if !ok {
		return total, err
	}
	total.SetInt64(1)
	p.stamp++
	for i, n := range t.Nodes {
		if t.Parent[i] < 0 {
			total.Mul(total, p.msg[i].weight(0))
		}
		for _, a := range n.Atoms {
			for _, v := range a.Scope {
				p.mark[v] = p.stamp
			}
		}
	}
	dom := big.NewInt(int64(t.Dom))
	for _, n := range t.Nodes {
		for _, v := range n.Scope {
			if p.mark[v] != p.stamp {
				p.mark[v] = p.stamp
				total.Mul(total, dom)
			}
		}
	}
	return total, nil
}

// Join returns the projection of the join of the tables onto keep, its
// columns in keep's order: the pass run with keep, and the product of the
// roots' messages. Every keep variable must lie in some table. The error is
// ctx's, or reports a parent array that is not a forest or a keep variable
// in no table.
func (t *JoinTree) Join(ctx context.Context, keep []int) (*Table, error) {
	p, ok, err := t.run(ctx, keep, false, false)
	defer p.release()
	if err != nil {
		return nil, err
	}
	out := NewTable(len(keep))
	if !ok {
		return out, nil
	}
	// The order lists the roots first; a lone root's message is the answer.
	ans := rel{rows: unit}
	for k := 0; k < len(p.order) && t.Parent[p.order[k]] < 0; k++ {
		if i := p.order[k]; k == 0 {
			ans = p.msg[i]
		} else if ans, err = p.joinRels(&ans, &p.msg[i], nil); err != nil {
			return nil, err
		}
	}
	out.n = ans.rows.n
	if ans.rows == p.answer {
		out.data = ans.rows.data
		return out, nil
	}
	if slices.Equal(ans.vars, keep) {
		out.data = slices.Clone(ans.rows.data[:ans.rows.n*len(keep)])
		return out, nil
	}
	pos := make([]int, len(keep))
	for c, v := range keep {
		if pos[c] = slices.Index(ans.vars, v); pos[c] < 0 {
			return nil, fmt.Errorf("relation: keep variable %d is in no table", v)
		}
	}
	out.data = make([]int, ans.rows.n*len(keep))
	k, src := ans.rows.k, ans.rows.data
	for dst := out.data; len(dst) > 0; dst, src = dst[len(keep):], src[k:] {
		for c, j := range pos {
			dst[c] = src[j]
		}
	}
	return out, nil
}

// Reduce runs Yannakakis' full reducer over a tree whose every node holds
// one table: semijoins up the tree, each parent keeping the rows some
// child row matches, then down, each child keeping the rows some parent
// row matches. It returns one table per node holding the node's rows that
// some row of the join uses, in insertion order: node i's table is the
// projection of the join onto its table's scope. When the join is empty
// every table is empty. The tables carry no index yet (a first lookup
// builds it, as for AddDistinct). The error is ctx's, or reports a parent
// array that is not a forest or a node without exactly one table.
func (t *JoinTree) Reduce(ctx context.Context) ([]*Table, error) {
	p, ok, err := t.newPass(ctx, nil)
	defer p.release()
	if err != nil {
		return nil, err
	}
	defer p.flush()
	p.local = resize(p.local, len(t.Nodes))
	for i, n := range t.Nodes {
		if len(n.Atoms) != 1 {
			return nil, errors.New("relation: the full reducer needs one table per node")
		}
		p.local[i] = rel{vars: n.Atoms[0].Scope, rows: n.Atoms[0].Rows}
	}
	step := func(a, b int) (err error) {
		aCols, bCols, _ := p.columns(p.local[a].vars, p.local[b].vars)
		p.local[a], err = p.semijoin(&p.local[a], &p.local[b], aCols, bCols)
		return err
	}
	for k := len(p.order) - 1; ok && k >= 0; k-- {
		if i := p.order[k]; t.Parent[i] >= 0 {
			if err := step(t.Parent[i], i); err != nil {
				return nil, err
			}
			ok = p.local[t.Parent[i]].rows.n > 0
		}
	}
	for _, i := range p.order {
		if ok && t.Parent[i] >= 0 {
			if err := step(i, t.Parent[i]); err != nil {
				return nil, err
			}
		}
	}
	out := make([]*Table, len(t.Nodes))
	for i, l := range p.local {
		if out[i] = NewTable(l.rows.k); ok {
			out[i].data, out[i].n = slices.Clone(l.rows.data[:l.rows.n*l.rows.k]), l.rows.n
			p.sent += int64(l.rows.n)
		}
	}
	return out, nil
}
