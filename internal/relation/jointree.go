package relation

import (
	"context"
	"errors"
	"math/big"
	"slices"

	"csdb/internal/obs"
)

// The join-tree engine: the one algorithm behind every bounded-width route
// of Section 6. A join tree's nodes are relations over scopes of distinct
// variables, with the connectedness property: a variable shared by two
// nodes occurs in every node on the tree path between them. Yannakakis'
// full reducer (semijoins up the tree, then down) leaves every surviving
// row extendable to a solution, so a root-first pass assigns the nodes
// without backtracking; a sum-product pass over the same tree and the same
// projection keys counts the solutions.
//
// Freuder's tree algorithm is the engine run over binary constraints (the
// width-1 case of Theorem 6.2), an α-acyclic instance runs it over GYO's
// join tree, and Theorem 6.2's DP runs it over bag relations (Proposition
// 2.1 builds each bag's relation as a join). Each caller builds the tree;
// the engine trusts its connectedness and checks only that the parents
// form a forest.

// JoinTree is the engine's input: relations joined by a parent array.
type JoinTree struct {
	// Dom bounds the values: every row value lies in [0, Dom).
	Dom int
	// Nodes are the tree's relations.
	Nodes []Node
	// Parent[i] is node i's parent, -1 at a root. A forest is allowed: its
	// trees share no variable.
	Parent []int
}

// Node is one relation of a join tree: a table whose columns are the
// scope's variables, which are distinct.
type Node struct {
	Scope []int
	Rows  *Table
}

// denseKeys bounds the key space of a dense projection key: a projection
// onto s shared variables is keyed by its mixed-radix value over Dom when
// Dom^s is at most this, and through a Table of the distinct projections
// otherwise.
const denseKeys = 1 << 16

var errNotForest = errors.New("relation: join tree parents do not form a forest")

// reducer is one run's working state.
type reducer struct {
	t     *JoinTree
	pl    *Poller
	order []int     // the nodes, roots first, every parent before its children
	rows  [][]int32 // the surviving row ids of each node
	// weights[i][j], when counting, is the number of ways row rows[i][j]
	// extends over node i's subtree.
	weights [][]*big.Int
	// The variables node i shares with its parent sit at positions
	// childPos[off[i]:off[i+1]] of its scope and parentPos[off[i]:off[i+1]]
	// of the parent's.
	off                 []int32
	childPos, parentPos []int
	keys                keyer
	bits                []uint64
	sums                []*big.Int
	loaded, semijoins   int64
}

// newReducer orders the forest, finds every node's shared positions and
// loads every row. It reports false when some node is empty.
func (t *JoinTree) newReducer(ctx context.Context) (*reducer, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	m := len(t.Nodes)
	if len(t.Parent) != m {
		return nil, false, errNotForest
	}
	order, err := forestOrder(t.Parent)
	if err != nil {
		return nil, false, err
	}
	r := &reducer{t: t, pl: NewPoller(ctx), order: order, rows: make([][]int32, m), off: make([]int32, m+1)}
	r.keys.dom = t.Dom
	for i, n := range t.Nodes {
		r.loaded += int64(n.Rows.Len())
		if pa := t.Parent[i]; pa >= 0 {
			for a, v := range n.Scope {
				if b := slices.Index(t.Nodes[pa].Scope, v); b >= 0 {
					r.childPos = append(r.childPos, a)
					r.parentPos = append(r.parentPos, b)
				}
			}
		}
		r.off[i+1] = int32(len(r.childPos))
	}
	ids := make([]int32, r.loaded)
	for i, n := range t.Nodes {
		k := n.Rows.Len()
		if k == 0 {
			return r, false, nil
		}
		r.rows[i], ids = ids[:k:k], ids[k:]
		for j := range r.rows[i] {
			r.rows[i][j] = int32(j)
		}
	}
	return r, true, nil
}

// forestOrder lists the nodes of the forest given by parent breadth-first,
// roots first. A parent out of range or a cycle (which no root reaches) is
// an error.
func forestOrder(parent []int) ([]int, error) {
	m := len(parent)
	start := make([]int32, m+1) // node p's children are kids[start[p]:start[p+1]]
	for _, pa := range parent {
		if pa < -1 || pa >= m {
			return nil, errNotForest
		}
		if pa >= 0 {
			start[pa+1]++
		}
	}
	for p := 0; p < m; p++ {
		start[p+1] += start[p]
	}
	kids, next := make([]int, start[m]), slices.Clone(start[:m])
	order := make([]int, 0, m)
	for i, pa := range parent {
		if pa < 0 {
			order = append(order, i)
		} else {
			kids[next[pa]] = i
			next[pa]++
		}
	}
	for k := 0; k < len(order); k++ {
		order = append(order, kids[start[order[k]]:start[order[k]+1]]...)
	}
	if len(order) != m {
		return nil, errNotForest
	}
	return order, nil
}

// shared returns the positions of node i's variables shared with its parent,
// in i's scope and in the parent's.
func (r *reducer) shared(i int) (child, parent []int) {
	lo, hi := r.off[i], r.off[i+1]
	return r.childPos[lo:hi], r.parentPos[lo:hi]
}

// semijoin keeps the surviving rows of node a whose projection onto aPos
// matches the projection of a surviving row of node b onto bPos. When
// counting, a kept row's weight is multiplied by the summed weights of the
// rows of b it matches.
func (r *reducer) semijoin(a int, aPos []int, b int, bPos []int) error {
	at, bt := r.t.Nodes[a].Rows, r.t.Nodes[b].Rows
	span := r.keys.reset(len(bPos), len(r.rows[b]))
	r.bits = slices.Grow(r.bits[:0], (span+63)/64)[:(span+63)/64]
	clear(r.bits)
	if r.weights != nil {
		r.sums = slices.Grow(r.sums[:0], span)[:span]
		clear(r.sums)
	}
	for j, id := range r.rows[b] {
		if err := r.pl.Tick(); err != nil {
			return err
		}
		k := r.keys.key(bt.Row(int(id)), bPos, true)
		r.bits[k>>6] |= 1 << (k & 63)
		if r.weights != nil {
			if r.sums[k] == nil {
				r.sums[k] = new(big.Int)
			}
			r.sums[k].Add(r.sums[k], r.weights[b][j])
		}
	}
	n := 0
	for j, id := range r.rows[a] {
		if err := r.pl.Tick(); err != nil {
			return err
		}
		if k := r.keys.key(at.Row(int(id)), aPos, false); k >= 0 && r.bits[k>>6]&(1<<(k&63)) != 0 {
			r.rows[a][n] = id
			if r.weights != nil {
				r.weights[a][n] = new(big.Int).Mul(r.weights[a][j], r.sums[k])
			}
			n++
		}
	}
	r.rows[a] = r.rows[a][:n]
	if r.weights != nil {
		r.weights[a] = r.weights[a][:n]
	}
	r.semijoins++
	return nil
}

// up semijoins every parent with each of its children, leaves first, and
// reports false once a node empties.
func (r *reducer) up() (bool, error) {
	for k := len(r.order) - 1; k >= 0; k-- {
		i := r.order[k]
		if pa := r.t.Parent[i]; pa >= 0 {
			cPos, pPos := r.shared(i)
			if err := r.semijoin(pa, pPos, i, cPos); err != nil || len(r.rows[pa]) == 0 {
				return false, err
			}
		}
	}
	return true, nil
}

// reduce runs the full reducer: semijoins up the tree, then down. It
// reports false when the join of the nodes is empty, in which case some
// node's surviving rows may remain; otherwise every surviving row extends
// to a row of the join. The run is recorded in the relation.jointree.*
// counters.
func (t *JoinTree) reduce(ctx context.Context) (*reducer, bool, error) {
	r, ok, err := t.newReducer(ctx)
	if err != nil {
		return nil, false, err
	}
	defer r.flush()
	if ok {
		ok, err = r.up()
	}
	if !ok {
		return r, false, err
	}
	// Down: each child keeps the rows some surviving parent row matches.
	for _, i := range r.order {
		if pa := t.Parent[i]; pa >= 0 {
			cPos, pPos := r.shared(i)
			if err := r.semijoin(i, cPos, pa, pPos); err != nil {
				return r, false, err
			}
		}
	}
	return r, true, nil
}

// Reduce runs the full reducer and returns one table per node holding the
// node's rows that some row of the join uses, in insertion order: node i's
// table is the projection of the join onto its scope. When the join is
// empty every table is empty. The tables carry no index yet (a first lookup
// builds it, as for AddDistinct). The error is ctx's, or reports a parent
// array that is not a forest.
func (t *JoinTree) Reduce(ctx context.Context) ([]*Table, error) {
	r, ok, err := t.reduce(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]*Table, len(t.Nodes))
	for i, n := range t.Nodes {
		out[i] = NewTable(n.Rows.k)
		if !ok {
			continue
		}
		out[i].data = make([]int, 0, len(r.rows[i])*n.Rows.k)
		for _, id := range r.rows[i] {
			out[i].appendUnique(n.Rows.Row(int(id)))
		}
	}
	return out, nil
}

// Solve runs the full reducer and extracts a solution root first. It
// returns an assignment of vars variables, -1 on every variable in no node,
// and false when the join of the nodes is empty. The error is ctx's, or
// reports a parent array that is not a forest or (for a tree without the
// connectedness property) an extraction that found no compatible row.
func (t *JoinTree) Solve(ctx context.Context, vars int) ([]int, bool, error) {
	r, ok, err := t.reduce(ctx)
	if !ok {
		return nil, false, err
	}
	// Extract: by connectedness, the variables of a node assigned before it
	// are its parent's, and the down pass left a row matching the parent's.
	sol := make([]int, vars)
	for v := range sol {
		sol[v] = -1
	}
	for _, i := range r.order {
		n := t.Nodes[i]
		var picked []int
	rows:
		for _, id := range r.rows[i] {
			if err := r.pl.Tick(); err != nil {
				return nil, false, err
			}
			row := n.Rows.Row(int(id))
			for j, v := range n.Scope {
				if sol[v] >= 0 && sol[v] != row[j] {
					continue rows
				}
			}
			picked = row
			break
		}
		if picked == nil {
			return nil, false, errors.New("relation: join tree extraction found no compatible row (the tree lacks connectedness)")
		}
		for j, v := range n.Scope {
			sol[v] = picked[j]
		}
	}
	return sol, true, nil
}

// flush records one full reducer run's effort.
func (r *reducer) flush() {
	if !obs.Enabled() {
		return
	}
	var reduced int64
	for _, ids := range r.rows {
		reduced += int64(len(ids))
	}
	obsTreeSolves.Inc()
	obsTreeSemijoins.Add(r.semijoins)
	obsTreeRowsLoaded.Add(r.loaded)
	obsTreeRowsReduced.Add(reduced)
}

// Count returns the number of assignments to the nodes' variables that
// every node holds: the up pass run as a sum-product, in which a row's
// weight is the number of ways it extends over its subtree, summed by
// projection key the way a semijoin tests it. The error is ctx's, or
// reports a parent array that is not a forest.
func (t *JoinTree) Count(ctx context.Context) (*big.Int, error) {
	r, ok, err := t.newReducer(ctx)
	if err != nil {
		return new(big.Int), err
	}
	defer r.flush()
	if !ok {
		return new(big.Int), nil
	}
	one := big.NewInt(1)
	r.weights = make([][]*big.Int, len(t.Nodes))
	for i, ids := range r.rows {
		r.weights[i] = make([]*big.Int, len(ids))
		for j := range ids {
			r.weights[i][j] = one
		}
	}
	if ok, err = r.up(); !ok {
		return new(big.Int), err
	}
	total := big.NewInt(1)
	for _, i := range r.order {
		if t.Parent[i] >= 0 {
			break // past the roots
		}
		sum := new(big.Int)
		for _, w := range r.weights[i] {
			sum.Add(sum, w)
		}
		total.Mul(total, sum)
	}
	return total, nil
}

// keyer numbers the projections of rows onto one edge's shared variables:
// by their mixed-radix value over Dom when Dom^s ≤ denseKeys, and otherwise
// by their row id in a Table of the distinct projections — the one path
// for a wide shared scope over a big domain.
type keyer struct {
	dom   int
	dense bool
	tab   *Table
	proj  []int
}

// reset prepares the keyer for projections onto s variables, of which at
// most n distinct ones will be added, and returns a bound on the keys.
func (k *keyer) reset(s, n int) int {
	size := 1
	for range s {
		if size*k.dom > denseKeys {
			size = -1
			break
		}
		size *= k.dom
	}
	if k.dense = size >= 0; k.dense {
		return size
	}
	k.tab = NewTable(s)
	k.tab.Grow(n)
	k.tab.ensureIndex()
	k.proj = slices.Grow(k.proj[:0], s)[:s]
	return n
}

// key returns the key of row's projection onto pos, recording it when add
// is set. A dense key is the projection's value, whether or not it was
// added (the caller tracks that); any other unrecorded projection has key
// -1.
func (k *keyer) key(row, pos []int, add bool) int {
	if k.dense {
		key := 0
		for _, p := range pos {
			key = key*k.dom + row[p]
		}
		return key
	}
	for c, p := range pos {
		k.proj[c] = row[p]
	}
	if add {
		id, _ := k.tab.insert(k.proj, hashVals(k.proj))
		return int(id)
	}
	return int(k.tab.lookup(k.proj, hashVals(k.proj)))
}
