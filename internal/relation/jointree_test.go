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
		t.Nodes[perm[i]] = tableNode(sc, tab)
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

// tableNode is a node holding one table over its whole scope.
func tableNode(scope []int, tab *Table) Node {
	return Node{Scope: scope, Atoms: []Atom{{Scope: scope, Rows: tab}}}
}

// naiveAtom is a table as an oracle relation over attributes xV.
func naiveAtom(a Atom) *naiveRel {
	attrs := make([]string, len(a.Scope))
	for j, v := range a.Scope {
		attrs[j] = fmt.Sprintf("x%d", v)
	}
	r := newNaive(attrs)
	for i := 0; i < a.Rows.Len(); i++ {
		r.add(a.Rows.Row(i))
	}
	return r
}

// naiveNode is a one-table node's table as an oracle relation.
func naiveNode(n Node) *naiveRel { return naiveAtom(n.Atoms[0]) }

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
		if len(j.tuples)*n.Atoms[0].Rows.Len() > maxOracleRows {
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
		sol, found, _, err := tree.Solve(context.Background(), vars)
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
			if !n.Atoms[0].Rows.Has(row) {
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
				for k < n.Atoms[0].Rows.Len() && !slices.Equal(n.Atoms[0].Rows.Row(k), got[i].Row(r)) {
					k++
				}
				if k == n.Atoms[0].Rows.Len() {
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

// A join index keys a small key space by value and hashes a big one: pin
// where it starts hashing, and that both schemes find the same rows.
func TestJoinTableHashesBeyondDenseKeys(t *testing.T) {
	for _, c := range []struct {
		dom, cols, rows int
		dense           bool
	}{
		{1, 9, 1, true}, {2, 5, 1, true}, {2, 6, 1, false}, {5, 2, 4, true}, {6, 2, 4, false},
		{300, 1, 4, false}, {300, 1, 75, true}, {300, 2, 5000, false}, {300, 2, 12000, true}, {0, 3, 4, false},
	} {
		tab := NewTable(c.cols)
		tab.Add(make([]int, c.cols))
		tab.n, tab.data = c.rows, make([]int, c.rows*c.cols)
		cols := make([]int, c.cols)
		for j := range cols {
			cols[j] = j
		}
		var jt joinTable
		if err := buildJoinTable(&Poller{}, &jt, tab, cols, c.dom); err != nil {
			t.Fatal(err)
		}
		if dense := jt.radix > 0; dense != c.dense {
			t.Errorf("dom %d, %d columns, %d rows: keyed by value %v, want %v", c.dom, c.cols, c.rows, dense, c.dense)
		}
	}
	for _, dom := range []int{3, 300} {
		build := NewTable(2)
		for _, row := range [][]int{{0, 1}, {2, 1}, {0, 1 + dom/2}, {2, 1}} {
			build.Add(row)
		}
		var jt joinTable
		if err := buildJoinTable(&Poller{}, &jt, build, []int{1, 0}, dom); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			probe []int
			want  int32
		}{{[]int{0, 1}, 0}, {[]int{2, 1}, 1}, {[]int{1, 0}, -1}, {[]int{0, 1 + dom/2}, 2}} {
			if got := jt.head(c.probe, 0, []int{1, 0}); got != c.want {
				t.Errorf("dom %d: %v heads row %d, want %d", dom, c.probe, got, c.want)
			}
		}
	}
}

func TestJoinTreeRejectsNonForests(t *testing.T) {
	n := tableNode([]int{0}, NewTable(1))
	n.Atoms[0].Rows.Add([]int{0})
	for _, parent := range [][]int{{0}, {1, 0}, {-2}, {5}, {-1, 2, 1}} {
		tree := &JoinTree{Dom: 1, Nodes: make([]Node, len(parent)), Parent: parent}
		for i := range tree.Nodes {
			tree.Nodes[i] = n
		}
		if _, _, _, err := tree.Solve(context.Background(), 1); !errors.Is(err, errNotForest) {
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
	if _, _, _, err := tree.Solve(ctx, vars); !errors.Is(err, context.Canceled) {
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
		return tableNode(scope, tab)
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

// randomAtomTree draws a join tree like randomJoinTree, but each node holds
// up to three tables, each over a random subset of the node's scope, so
// that some variables lie in no table.
func randomAtomTree(rng *rand.Rand, dom int) *JoinTree {
	base, vars := randomJoinTree(rng, dom)
	planted := make([]int, vars)
	for v := range planted {
		planted[v] = rng.Intn(dom)
	}
	plant := rng.Intn(2) == 0
	t := &JoinTree{Dom: dom, Nodes: make([]Node, len(base.Nodes)), Parent: base.Parent}
	for i, n := range base.Nodes {
		t.Nodes[i].Scope = n.Scope
		for a := rng.Intn(4); a > 0; a-- {
			var sc []int
			for _, v := range n.Scope {
				if rng.Intn(3) > 0 {
					sc = append(sc, v)
				}
			}
			if len(sc) == 0 {
				continue
			}
			tab, row := NewTable(len(sc)), make([]int, len(sc))
			for r := rng.Intn(10); r > 0; r-- {
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
			t.Nodes[i].Atoms = append(t.Nodes[i].Atoms, Atom{Scope: sc, Rows: tab})
		}
	}
	return t
}

// subtreeJoin returns the naive join of the tables in node i's subtree, or
// nil when a join step could pass maxOracleRows rows.
func subtreeJoin(t *JoinTree, i int) *naiveRel {
	out := newNaive(nil)
	out.add(nil)
	var walk func(j int) bool
	walk = func(j int) bool {
		for _, a := range t.Nodes[j].Atoms {
			if len(out.tuples)*a.Rows.Len() > maxOracleRows {
				return false
			}
			out = out.join(naiveAtom(a))
		}
		for c, pa := range t.Parent {
			if pa == j && !walk(c) {
				return false
			}
		}
		return true
	}
	if !walk(i) {
		return nil
	}
	return out
}

// varAttrs names variables as the oracle does, in ascending order.
func varAttrs(vars []int) []string {
	vs := slices.Clone(vars)
	slices.Sort(vs)
	attrs := make([]string, len(vs))
	for j, v := range vs {
		attrs[j] = fmt.Sprintf("x%d", v)
	}
	return attrs
}

// TestMessagesMatchNaiveJoin is the pass's message differential. On random
// trees and forests whose nodes hold several tables (or none) and leave
// some variables in no table, over small domains and over 300 values (whose
// keys of two variables are hashed), with and without keep variables, every
// node's message — extracting, counting or neither — equals the projection
// of the naive join of the tables in its subtree onto the subtree's
// variables in the parent's scope or kept, and each counted message row
// weighs the number of the subtree join's rows it projects.
func TestMessagesMatchNaiveJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	full, empty, skipped := 0, 0, 0
	for trial := 0; trial < 600; trial++ {
		dom := 1 + rng.Intn(3)
		if trial%3 == 0 {
			dom = 300
		}
		tree := randomAtomTree(rng, dom)
		var all []int
		for _, n := range tree.Nodes {
			all = append(all, n.Scope...)
		}
		var keep []int
		if trial%2 == 0 {
			for _, v := range all {
				if rng.Intn(4) == 0 && !slices.Contains(keep, v) {
					keep = append(keep, v)
				}
			}
		}
		want := make([]*naiveRel, len(tree.Nodes))
		for i := range tree.Nodes {
			if want[i] = subtreeJoin(tree, i); want[i] == nil {
				break
			}
		}
		if slices.Contains(want, nil) {
			skipped++
			continue
		}
		for mode := range 3 {
			count, solve := mode == 1, mode == 2
			p, ok, err := tree.run(context.Background(), keep, count, solve)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !ok {
				// Some subtree's join is empty, and with it the whole join.
				for i, pa := range tree.Parent {
					if pa < 0 && len(want[i].tuples) == 0 {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("trial %d: the pass found the join empty, the oracle did not", trial)
				}
				p.release()
				if mode == 0 {
					empty++
				}
				continue
			}
			for i := range tree.Nodes {
				msg := &p.msg[i]
				vars := msg.vars
				var wantVars []int
				for _, a := range want[i].attrs {
					var v int
					fmt.Sscanf(a, "x%d", &v)
					pa := tree.Parent[i]
					if slices.Contains(keep, v) || pa >= 0 && slices.Contains(tree.Nodes[pa].Scope, v) {
						wantVars = append(wantVars, v)
					}
				}
				attrs := varAttrs(wantVars)
				if !slices.Equal(varAttrs(vars), attrs) {
					t.Fatalf("trial %d mode %d node %d: message over %v, want %v", trial, mode, i, varAttrs(vars), attrs)
				}
				got := newNaive(varAttrs(vars))
				rows := msg.rows
				weights := map[string]int64{}
				order := make([]int, len(vars)) // got's column of each message column
				for j, v := range vars {
					order[j] = slices.Index(got.attrs, fmt.Sprintf("x%d", v))
				}
				for r := range rows.n {
					row := make([]int, len(vars))
					for j, x := range rows.Row(r) {
						row[order[j]] = x
					}
					got.add(row)
					weights[naiveKey(row)] = msg.weight(r).Int64()
				}
				if len(got.tuples) != rows.n {
					t.Fatalf("trial %d mode %d node %d: the message repeats a row", trial, mode, i)
				}
				w := want[i].project(attrs)
				if len(got.tuples) != len(w.tuples) {
					t.Fatalf("trial %d mode %d node %d: %d message rows, want %d", trial, mode, i, len(got.tuples), len(w.tuples))
				}
				for _, row := range w.tuples {
					if _, ok := got.index[naiveKey(row)]; !ok {
						t.Fatalf("trial %d mode %d node %d: message misses %v", trial, mode, i, row)
					}
				}
				if !count {
					continue
				}
				pos := make([]int, len(attrs))
				for j, a := range attrs {
					pos[j] = want[i].pos[a]
				}
				ways := map[string]int64{}
				for _, row := range want[i].tuples {
					ways[naiveJoinKey(row, pos)]++
				}
				for k, n := range ways {
					if weights[k] != n {
						t.Fatalf("trial %d node %d: row %s weighs %d, the subtree join has %d", trial, i, k, weights[k], n)
					}
				}
			}
			p.release()
			if mode == 0 {
				full++
			}
		}
	}
	if skipped > 30 || full < 200 || empty < 50 {
		t.Fatalf("%d trees compared in full, %d empty, %d skipped: the trees do not exercise the pass", full, empty, skipped)
	}
}
