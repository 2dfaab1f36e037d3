package relation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
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
		attrs := make([]string, len(n.Scope))
		for j, v := range n.Scope {
			attrs[j] = fmt.Sprintf("x%d", v)
		}
		r := newNaive(attrs)
		for i := 0; i < n.Rows.Len(); i++ {
			r.add(n.Rows.Row(i))
		}
		out = out.join(r)
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
}
