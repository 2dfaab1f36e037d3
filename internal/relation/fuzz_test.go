package relation

import (
	"context"
	"slices"
	"testing"
)

// decodeFuzzRel consumes bytes from *data to build one small relation over a
// wrapping window of the attribute pool, so fuzzed pairs share 0..2
// attributes depending on the offsets the fuzzer picks.
func decodeFuzzRel(data *[]byte) *Relation {
	next := func() int {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return int(b)
	}
	pool := []string{"a", "b", "c", "d", "e"}
	k := 1 + next()%3
	off := next() % len(pool)
	attrs := make([]string, k)
	for i := range attrs {
		attrs[i] = pool[(off+i)%len(pool)]
	}
	r := MustNew(attrs...)
	rows := next() % 8
	for i := 0; i < rows; i++ {
		t := make(Tuple, k)
		for j := range t {
			t[j] = next() % 4
		}
		r.MustAdd(t)
	}
	return r
}

// FuzzJoinDifferential decodes two relations from the fuzz input and checks
// the integer-coded hash kernel against the string-keyed reference
// implementation (naive.go) for Join, and the join-tree engine's full
// reducer over the two-node tree r → s against the reference semijoins
// r ⋉ s and s ⋉ r: same schema, same row multiset. A third arm runs the
// engine's up pass over r at the root, s under it and, when the input has
// bytes left, a third relation under r or s: the root's message, keeping
// the attributes a further byte picks, is the projection of the three-way
// join. A fourth arm evaluates the same relations as literals (Eval) onto a
// head that byte picks. This is the fuzz-driven extension of diff_test.go's fixed-seed
// differential suite.
func FuzzJoinDifferential(f *testing.F) {
	f.Add([]byte{2, 0, 2, 0, 1, 1, 0, 2, 1, 3, 1, 1, 2})
	f.Add([]byte{1, 0, 3, 1, 2, 3})
	f.Add([]byte{3, 2, 2, 3, 0, 1, 2, 2, 2, 1, 0, 0, 3, 3, 1})
	f.Add([]byte{})
	f.Add([]byte{2, 0, 3, 0, 1, 1, 2, 3, 3, 2, 1, 0, 3, 1, 2, 2, 2, 4, 1, 1, 3, 0, 1, 0x15})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := decodeFuzzRel(&data)
		s := decodeFuzzRel(&data)
		nr, ns := naiveFrom(r), naiveFrom(s)

		fuzzSameRows(t, "join", r.Join(s), nr.join(ns))
		rs, sr := reduceSemijoin(t, 4, r, s)
		fuzzSameRows(t, "reduce child", rs, nr.semijoin(ns))
		fuzzSameRows(t, "reduce parent", sr, ns.semijoin(nr))

		rels := []*Relation{r, s}
		parent := []int{-1, 0}
		if len(data) > 0 {
			under := int(data[0] % 2)
			data = data[1:]
			rels, parent = append(rels, decodeFuzzRel(&data)), append(parent, under)
		}
		var mask byte
		if len(data) > 0 {
			mask = data[0]
		}
		passDifferential(t, rels, parent, mask)
		evalDifferential(t, rels, mask)
	})
}

// evalDifferential runs Eval over rels as literals and checks it against
// the reference join projected onto a head the same byte picks: the pool
// attributes of keepMask's low five bits that some relation has, in
// reverse pool order when bit 5 is set. With bit 6 set the first
// relation's last argument is renamed to its first, so that its literal
// repeats a variable.
func evalDifferential(t *testing.T, rels []*Relation, keepMask byte) {
	t.Helper()
	pool := []string{"a", "b", "c", "d", "e"}
	body := make([]Literal, len(rels))
	for i, r := range rels {
		body[i] = r.literal()
	}
	if args := body[0].Args; keepMask&(1<<6) != 0 && len(args) > 1 {
		body[0].Args = append(slices.Clone(args[:len(args)-1]), args[0])
	}
	var head []string
	for v, a := range pool {
		if keepMask&(1<<v) == 0 {
			continue
		}
		for _, l := range body {
			if slices.Contains(l.Args, a) {
				head = append(head, a)
				break
			}
		}
	}
	if keepMask&(1<<5) != 0 {
		slices.Reverse(head)
	}
	got, err := Eval(context.Background(), body, head)
	if err != nil {
		t.Fatal(err)
	}
	fuzzSameRows(t, "eval", got, naiveEval(body, head))
}

// passDifferential runs the up pass over the tree of rels given by parent
// (rels[0] is the root) and checks the root's message against the
// reference join of every relation projected onto the attributes that
// keepMask picks from the pool. A node's scope is its relation's attributes
// and, for a node between two others, the attributes they share, so that
// the tree is connected.
func passDifferential(t *testing.T, rels []*Relation, parent []int, keepMask byte) {
	t.Helper()
	pool := []string{"a", "b", "c", "d", "e"}
	varsOf := func(r *Relation) []int {
		vs := make([]int, len(r.Attrs()))
		for j, a := range r.Attrs() {
			vs[j] = slices.Index(pool, a)
		}
		return vs
	}
	tree := &JoinTree{Dom: 4, Nodes: make([]Node, len(rels)), Parent: parent}
	want := newNaive(nil)
	want.add(nil)
	for i, r := range rels {
		tree.Nodes[i] = Node{Scope: varsOf(r), Atoms: []Atom{{Scope: varsOf(r), Rows: &r.Table}}}
		want = want.join(naiveFrom(r))
	}
	if len(rels) == 3 {
		// The third relation's parent lies between it and the other node.
		mid, end := parent[2], 1-parent[2]
		for _, v := range varsOf(rels[2]) {
			if slices.Contains(varsOf(rels[end]), v) && !slices.Contains(tree.Nodes[mid].Scope, v) {
				tree.Nodes[mid].Scope = append(tree.Nodes[mid].Scope, v)
			}
		}
	}
	var keep, wantVars []int
	for v, a := range pool {
		if keepMask&(1<<v) != 0 {
			keep = append(keep, v)
			if want.hasAttr(a) {
				wantVars = append(wantVars, v)
			}
		}
	}
	p, ok, err := tree.run(context.Background(), keep, false, false)
	defer p.release()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		if len(want.tuples) > 0 {
			t.Errorf("pass: empty, reference join has %d rows", len(want.tuples))
		}
		return
	}
	msg := &p.msg[0]
	attrs := make([]string, len(msg.vars))
	for j, v := range msg.vars {
		attrs[j] = pool[v]
	}
	gotVars := slices.Clone(msg.vars)
	slices.Sort(gotVars)
	if !slices.Equal(gotVars, wantVars) {
		t.Errorf("pass: root message over %v, want %v", gotVars, wantVars)
		return
	}
	got, err := FromTable(attrs, msg.rows)
	if err != nil {
		t.Fatal(err)
	}
	fuzzSameRows(t, "pass root message", got, want.project(attrs))
}

// fuzzSameRows is sameRows with t.Errorf reporting (fuzz failures should
// show all divergences for the input, not stop at the first).
func fuzzSameRows(t *testing.T, what string, got *Relation, want *naiveRel) {
	t.Helper()
	if len(got.Attrs()) != len(want.attrs) {
		t.Errorf("%s: schema %v vs reference %v", what, got.Attrs(), want.attrs)
		return
	}
	for i, a := range got.Attrs() {
		if want.attrs[i] != a {
			t.Errorf("%s: schema %v vs reference %v", what, got.Attrs(), want.attrs)
			return
		}
	}
	if got.Len() != len(want.tuples) {
		t.Errorf("%s: %d rows vs reference %d", what, got.Len(), len(want.tuples))
		return
	}
	gs := got.SortedTuples()
	ws := want.sortedRows()
	for i := range gs {
		if !gs[i].Equal(Tuple(ws[i])) {
			t.Errorf("%s: row %d = %v vs reference %v", what, i, gs[i], ws[i])
			return
		}
	}
}
