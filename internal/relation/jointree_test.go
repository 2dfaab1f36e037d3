package relation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"csdb/internal/obs"
)

// randomJoinTree draws a join tree whose connectedness holds by
// construction: a node keeps a random subset of its parent's variables and
// adds fresh ones, so a variable's nodes are a subtree. Node indices are
// shuffled, so a parent may follow its children. Half the trees plant a
// solution in every table; the rest are random and mostly empty when the
// domain is big.
func randomJoinTree(rng *rand.Rand, dom int) (*JoinTree, int) {
	n := 1 + rng.Intn(7)
	scopes := make([][]int, n)
	parent := make([]int, n)
	vars := 0
	fresh := func(k int) []int {
		var vs []int
		for ; k > 0; k-- {
			vs = append(vs, vars)
			vars++
		}
		return vs
	}
	for i := range scopes {
		parent[i] = -1
		if i > 0 && rng.Intn(5) > 0 {
			parent[i] = rng.Intn(i)
			for _, v := range scopes[parent[i]] {
				if rng.Intn(2) == 0 {
					scopes[i] = append(scopes[i], v)
				}
			}
		}
		scopes[i] = append(scopes[i], fresh(rng.Intn(3))...)
		if len(scopes[i]) == 0 {
			scopes[i] = fresh(1)
		}
		rng.Shuffle(len(scopes[i]), func(a, b int) { scopes[i][a], scopes[i][b] = scopes[i][b], scopes[i][a] })
	}
	planted := make([]int, vars)
	for v := range planted {
		planted[v] = rng.Intn(dom)
	}
	plant := rng.Intn(2) == 0
	t := &JoinTree{Dom: dom, Nodes: make([]Node, n), Parent: make([]int, n)}
	perm := rng.Perm(n)
	for i, sc := range scopes {
		tab := NewTable(len(sc))
		row := make([]int, len(sc))
		for r := rng.Intn(12); r > 0; r-- {
			for j := range row {
				row[j] = rng.Intn(dom)
			}
			tab.Add(row)
		}
		if plant {
			for j, v := range sc {
				row[j] = planted[v]
			}
			tab.Add(row)
		}
		t.Nodes[perm[i]] = Node{Scope: sc, Rows: tab}
		t.Parent[perm[i]] = -1
		if parent[i] >= 0 {
			t.Parent[perm[i]] = perm[parent[i]]
		}
	}
	return t, vars
}

// naiveJoin joins every node with the map-based oracle kernel.
func naiveJoin(t *JoinTree) *naiveRel {
	out := newNaive(nil)
	out.add(nil)
	for _, n := range t.Nodes {
		out = out.join(naiveNode(n))
	}
	return out
}

// naiveNode is a node's table as an oracle relation over attributes xV.
func naiveNode(n Node) *naiveRel {
	attrs := make([]string, len(n.Scope))
	for j, v := range n.Scope {
		attrs[j] = fmt.Sprintf("x%d", v)
	}
	r := newNaive(attrs)
	for i := 0; i < n.Rows.Len(); i++ {
		r.add(n.Rows.Row(i))
	}
	return r
}

// maxOracleRows bounds the rows of one naive join step in naiveReduced.
const maxOracleRows = 1 << 16

// naiveReduced returns, for each node, the projection of the naive join of
// all nodes onto the node's scope. The trees of a forest share no
// variable, so the join of all nodes is the product of the trees' joins:
// it is empty when one tree's join is, and otherwise a node's projection is
// that of its own tree's join. Joining tree by tree keeps the oracle off
// the product's size; a tree whose join step could pass maxOracleRows rows
// makes it give up and return nil.
func naiveReduced(t *JoinTree) []*naiveRel {
	root := make([]int, len(t.Nodes))
	for i := range root {
		for root[i] = i; t.Parent[root[i]] >= 0; root[i] = t.Parent[root[i]] {
		}
	}
	joins := map[int]*naiveRel{}
	for i, n := range t.Nodes {
		j, ok := joins[root[i]]
		if !ok {
			j = newNaive(nil)
			j.add(nil)
		}
		if len(j.tuples)*n.Rows.Len() > maxOracleRows {
			return nil
		}
		joins[root[i]] = j.join(naiveNode(n))
	}
	out := make([]*naiveRel, len(t.Nodes))
	for i, n := range t.Nodes {
		out[i] = joins[root[i]].project(naiveNode(n).attrs)
	}
	for _, j := range joins {
		if len(j.tuples) == 0 {
			for i := range out {
				out[i] = newNaive(out[i].attrs)
			}
		}
	}
	return out
}

// TestJoinTreeMatchesNaiveJoin: on random join trees over small domains
// (dense keys) and over 300 values (shared scopes of two or more variables
// take the Table-key path), Solve finds a solution exactly when the join of
// the nodes is non-empty, the solution agrees with every node, and Count
// equals the join's size.
func TestJoinTreeMatchesNaiveJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 600; trial++ {
		dom := 1 + rng.Intn(3)
		if trial%3 == 0 {
			dom = 300
		}
		tree, vars := randomJoinTree(rng, dom)
		want := naiveJoin(tree)
		sol, found, err := tree.Solve(context.Background(), vars)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if found != (len(want.tuples) > 0) {
			t.Fatalf("trial %d: found=%v, naive join has %d rows", trial, found, len(want.tuples))
		}
		for _, n := range tree.Nodes {
			if !found {
				break
			}
			row := make([]int, len(n.Scope))
			for j, v := range n.Scope {
				row[j] = sol[v]
			}
			if !n.Rows.Has(row) {
				t.Fatalf("trial %d: solution %v misses node %v", trial, sol, n.Scope)
			}
		}
		count, err := tree.Count(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !count.IsInt64() || count.Int64() != int64(len(want.tuples)) {
			t.Fatalf("trial %d: count %v, naive join has %d rows", trial, count, len(want.tuples))
		}
	}
}

// TestReduceMatchesNaiveJoin: on random join trees, forests of trees that
// share no variable, and trees whose join is empty (a node's table may be
// empty, or its rows may match nothing), over small domains and over 300
// values, every reduced node equals the projection of the naive join of
// all nodes onto the node's scope, keeps the node's row order, and is
// empty when the join is.
func TestReduceMatchesNaiveJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	empty, skipped := 0, 0
	for trial := 0; trial < 600; trial++ {
		dom := 1 + rng.Intn(3)
		if trial%3 == 0 {
			dom = 300
		}
		tree, _ := randomJoinTree(rng, dom)
		want := naiveReduced(tree)
		if want == nil {
			skipped++
			continue
		}
		if len(want[0].tuples) == 0 {
			empty++
		}
		got, err := tree.Reduce(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, n := range tree.Nodes {
			sameRows(t, fmt.Sprintf("trial %d node %d", trial, i), mustFromTable(want[i].attrs, got[i]), want[i])
			for r, k := 0, 0; r < got[i].Len(); r, k = r+1, k+1 {
				for k < n.Rows.Len() && !slices.Equal(n.Rows.Row(k), got[i].Row(r)) {
					k++
				}
				if k == n.Rows.Len() {
					t.Fatalf("trial %d node %d: reduced rows out of insertion order", trial, i)
				}
			}
		}
	}
	if skipped > 6 {
		t.Fatalf("the oracle gave up on %d of 600 trees", skipped)
	}
	if empty < 100 || empty > 500 {
		t.Fatalf("%d of 600 joins empty: the trees do not exercise both cases", empty)
	}
}

// The Table-key fallback is the only path for a shared scope whose dense
// key space exceeds denseKeys; pin where it starts.
func TestKeyerFallsBackBeyondDenseKeys(t *testing.T) {
	for _, c := range []struct {
		dom, shared int
		dense       bool
	}{
		{1, 9, true}, {2, 16, true}, {2, 17, false}, {256, 2, true}, {257, 2, false}, {300, 1, true}, {300, 2, false}, {0, 3, true},
	} {
		k := keyer{dom: c.dom}
		k.reset(c.shared, 4)
		if k.dense != c.dense {
			t.Errorf("dom %d, %d shared: dense=%v, want %v", c.dom, c.shared, k.dense, c.dense)
		}
	}
	// Both schemes give a projection the same key when it is added and when
	// it is looked up.
	for _, dom := range []int{3, 300} {
		k := keyer{dom: dom}
		k.reset(2, 2)
		a, b := k.key([]int{0, 1, 2}, []int{1, 2}, true), k.key([]int{2, 1, 0}, []int{2, 1}, true)
		if a == b || k.key([]int{1, 2}, []int{0, 1}, false) != a || k.key([]int{1, 0}, []int{1, 0}, false) != b {
			t.Errorf("dom %d: keys %d %d do not round-trip", dom, a, b)
		}
		if dom == 300 && k.key([]int{2, 2}, []int{0, 1}, false) != -1 {
			t.Errorf("dom %d: an absent projection has a key", dom)
		}
	}
}

func TestJoinTreeRejectsNonForests(t *testing.T) {
	n := Node{Scope: []int{0}, Rows: NewTable(1)}
	n.Rows.Add([]int{0})
	for _, parent := range [][]int{{0}, {1, 0}, {-2}, {5}, {-1, 2, 1}} {
		tree := &JoinTree{Dom: 1, Nodes: make([]Node, len(parent)), Parent: parent}
		for i := range tree.Nodes {
			tree.Nodes[i] = n
		}
		if _, _, err := tree.Solve(context.Background(), 1); !errors.Is(err, errNotForest) {
			t.Errorf("parents %v: Solve err %v", parent, err)
		}
		if _, err := tree.Count(context.Background()); !errors.Is(err, errNotForest) {
			t.Errorf("parents %v: Count err %v", parent, err)
		}
		if _, err := tree.Reduce(context.Background()); !errors.Is(err, errNotForest) {
			t.Errorf("parents %v: Reduce err %v", parent, err)
		}
	}
}

func TestJoinTreeHonoursExpiredContext(t *testing.T) {
	tree, vars := randomJoinTree(rand.New(rand.NewSource(1)), 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := tree.Solve(ctx, vars); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve err %v", err)
	}
	if _, err := tree.Count(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Count err %v", err)
	}
	if _, err := tree.Reduce(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Reduce err %v", err)
	}
}

// TestCountRecordsItsRun pins that a counting run lands in the
// relation.jointree.* counters the way a solve does: one run, one semijoin
// per edge of the up pass and every node row loaded, and likewise for a
// tree with an empty node, which returns before any semijoin.
func TestCountRecordsItsRun(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	node := func(scope []int, rows ...[]int) Node {
		tab := NewTable(len(scope))
		for _, row := range rows {
			tab.Add(row)
		}
		return Node{Scope: scope, Rows: tab}
	}
	path := &JoinTree{Dom: 2, Parent: []int{-1, 0, 1}, Nodes: []Node{
		node([]int{0, 1}, []int{0, 0}, []int{0, 1}, []int{1, 1}),
		node([]int{1, 2}, []int{0, 0}, []int{1, 0}),
		node([]int{2, 3}, []int{0, 1}, []int{1, 1}),
	}}
	withEmpty := &JoinTree{Dom: 2, Parent: []int{-1, 0}, Nodes: []Node{
		node([]int{0, 1}, []int{0, 0}, []int{1, 1}),
		node([]int{1, 2}),
	}}
	for _, tc := range []struct {
		name                   string
		tree                   *JoinTree
		count, semijoins, rows int64
	}{
		{"path", path, 3, 2, 7},
		{"empty node", withEmpty, 0, 0, 2},
	} {
		runs, semijoins, loaded := obsTreeSolves.Load(), obsTreeSemijoins.Load(), obsTreeRowsLoaded.Load()
		n, err := tc.tree.Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n.Int64() != tc.count {
			t.Fatalf("%s: Count = %v, want %d", tc.name, n, tc.count)
		}
		if d := obsTreeSolves.Load() - runs; d != 1 {
			t.Fatalf("%s: solves delta %d, want 1", tc.name, d)
		}
		if d := obsTreeSemijoins.Load() - semijoins; d != tc.semijoins {
			t.Fatalf("%s: semijoins delta %d, want %d", tc.name, d, tc.semijoins)
		}
		if d := obsTreeRowsLoaded.Load() - loaded; d != tc.rows {
			t.Fatalf("%s: rows_loaded delta %d, want %d", tc.name, d, tc.rows)
		}
	}
}
