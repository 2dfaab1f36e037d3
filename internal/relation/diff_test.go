package relation

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// Differential tests: the integer-hash kernel against the retained
// string-keyed reference implementation (naive.go), plus the algebraic
// identities of the natural-join semiring. Any divergence is a kernel bug by
// definition — the naive kernel is the seed implementation the rest of the
// repo was validated against.

// sameRows compares a fast-kernel relation against a reference relation:
// identical attribute lists and identical sorted row sets.
func sameRows(t *testing.T, what string, got *Relation, want *naiveRel) {
	t.Helper()
	if len(got.Attrs()) != len(want.attrs) {
		t.Fatalf("%s: schema %v vs reference %v", what, got.Attrs(), want.attrs)
	}
	for i, a := range got.Attrs() {
		if want.attrs[i] != a {
			t.Fatalf("%s: schema %v vs reference %v", what, got.Attrs(), want.attrs)
		}
	}
	if got.Len() != len(want.tuples) {
		t.Fatalf("%s: %d rows vs reference %d", what, got.Len(), len(want.tuples))
	}
	gs := got.SortedTuples()
	ws := want.sortedRows()
	for i := range gs {
		if !gs[i].Equal(Tuple(ws[i])) {
			t.Fatalf("%s: row %d = %v vs reference %v", what, i, gs[i], ws[i])
		}
	}
}

// reduceSemijoin runs the join-tree engine's full reducer over the
// two-node tree whose child is r and whose parent is s, with values in
// [0, dom), and returns the reduced nodes: r ⋉ s and s ⋉ r. A dom too big
// for a key's value to index the join kernel's slots sends every shared
// scope down the hashed path.
func reduceSemijoin(tb testing.TB, dom int, r, s *Relation) (*Relation, *Relation) {
	tb.Helper()
	ids := map[string]int{}
	scope := func(x *Relation) []int {
		sc := make([]int, len(x.Attrs()))
		for j, a := range x.Attrs() {
			if _, ok := ids[a]; !ok {
				ids[a] = len(ids)
			}
			sc[j] = ids[a]
		}
		return sc
	}
	tree := &JoinTree{Dom: dom, Nodes: []Node{tableNode(scope(r), &r.Table), tableNode(scope(s), &s.Table)}, Parent: []int{1, -1}}
	out, err := tree.Reduce(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return mustFromTable(r.Attrs(), out[0]), mustFromTable(s.Attrs(), out[1])
}

// mustFromTable is FromTable, failing by panic.
func mustFromTable(attrs []string, t *Table) *Relation {
	r, err := FromTable(attrs, t)
	if err != nil {
		panic(err)
	}
	return r
}

// randomSchema picks a schema of 1..3 attributes from a small pool so that
// random pairs share 0, 1 or 2 attributes.
func randomSchema(rng *rand.Rand) []string {
	pool := []string{"a", "b", "c", "d", "e"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:1+rng.Intn(3)]
}

func randomRel(rng *rand.Rand, attrs []string, dom, maxRows int) *Relation {
	r := MustNew(attrs...)
	n := rng.Intn(maxRows + 1)
	for i := 0; i < n; i++ {
		t := make(Tuple, len(attrs))
		for j := range t {
			t[j] = rng.Intn(dom)
		}
		r.MustAdd(t)
	}
	return r
}

func TestDifferentialJoinSemijoinProject(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 500; trial++ {
		r := randomRel(rng, randomSchema(rng), 1+rng.Intn(5), 12)
		s := randomRel(rng, randomSchema(rng), 1+rng.Intn(5), 12)
		nr, ns := naiveFrom(r), naiveFrom(s)

		sameRows(t, fmt.Sprintf("trial %d join", trial), r.Join(s), nr.join(ns))
		dom := 5
		if trial%2 == 1 {
			dom = 1 << 20
		}
		rs, sr := reduceSemijoin(t, dom, r, s)
		sameRows(t, fmt.Sprintf("trial %d reduce child", trial), rs, nr.semijoin(ns))
		sameRows(t, fmt.Sprintf("trial %d reduce parent", trial), sr, ns.semijoin(nr))

		proj := r.Attrs()[:1+rng.Intn(len(r.Attrs()))]
		got, err := r.Project(proj...)
		if err != nil {
			t.Fatalf("trial %d project: %v", trial, err)
		}
		sameRows(t, fmt.Sprintf("trial %d project", trial), got, nr.project(proj))
	}
}

// TestDifferentialJoinAll holds JoinAll to the reference left fold, schema
// (first-occurrence order) and rows, on random inputs and on the edge
// shapes of the one-node engine run: 0-ary inputs (empty and unit), an
// empty input, a single input and disconnected inputs (a product). Every
// other trial moves all values to negative or >= 2^20 ones, which no
// by-value key indexes.
func TestDifferentialJoinAll(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 400; trial++ {
		k := 2 + rng.Intn(4)
		if trial%5 == 3 {
			k = 1
		}
		rels := make([]*Relation, k)
		for i := range rels {
			attrs, rows := randomSchema(rng), 8
			if trial%5 == 4 {
				attrs, rows = []string{fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)}[:1+rng.Intn(2)], 4
			}
			rels[i] = randomRel(rng, attrs, 1+rng.Intn(4), rows)
		}
		switch i := rng.Intn(k); trial % 5 {
		case 1:
			rels[i] = MustNew()
			if rng.Intn(2) == 0 {
				rels[i].MustAdd(Tuple{})
			}
		case 2:
			rels[i] = MustNew(rels[i].Attrs()...)
		}
		naives := make([]*naiveRel, k)
		for i, r := range rels {
			if trial%2 == 1 {
				rels[i] = spread(r)
			}
			naives[i] = naiveFrom(rels[i])
		}
		sameRows(t, fmt.Sprintf("trial %d joinall", trial), JoinAll(rels), naiveJoinAll(naives))
	}
}

// naiveLiteral is the reference binder: the rows of l's table on which
// every repeated argument takes one value, over l's distinct arguments in
// order of first occurrence, checked through a map per row.
func naiveLiteral(l Literal) *naiveRel {
	var vars []string
	for _, a := range l.Args {
		if !slices.Contains(vars, a) {
			vars = append(vars, a)
		}
	}
	out := newNaive(vars)
rows:
	for _, t := range l.Rows.Tuples() {
		val := make(map[string]int)
		for i, a := range l.Args {
			if v, ok := val[a]; ok && v != t[i] {
				continue rows
			}
			val[a] = t[i]
		}
		row := make([]int, len(vars))
		for j, a := range vars {
			row[j] = val[a]
		}
		out.add(row)
	}
	return out
}

// naiveEval is the reference for Eval: the left fold of the bound
// literals, projected onto head.
func naiveEval(body []Literal, head []string) *naiveRel {
	naives := make([]*naiveRel, len(body))
	for i, l := range body {
		naives[i] = naiveLiteral(l)
	}
	return naiveJoinAll(naives).project(head)
}

// TestEvalMatchesNaive holds Eval to the reference join and projection on
// random bodies: arguments drawn with repeats from a small pool, so that
// literals repeat variables and some are disconnected from the rest;
// empty tables and 0-ary tables (empty and unit); one table shared by two
// literals; and a head that is a random subset of the body's variables in
// random order, empty in some trials. Eval must leave every table as it
// found it.
func TestEvalMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	pool := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 600; trial++ {
		body := make([]Literal, rng.Intn(5))
		var vars []string
		for i := range body {
			args := make([]string, rng.Intn(4))
			for j := range args {
				args[j] = pool[rng.Intn(len(pool))]
				if !slices.Contains(vars, args[j]) {
					vars = append(vars, args[j])
				}
			}
			rows := NewTable(len(args))
			for n := rng.Intn(10); n > 0; n-- {
				row := make([]int, len(args))
				for j := range row {
					row[j] = rng.Intn(3)
				}
				rows.Add(row)
			}
			if i > 0 && rng.Intn(6) == 0 && body[i-1].Rows.k == len(args) {
				rows = body[i-1].Rows
			}
			body[i] = Literal{Args: args, Rows: rows}
		}
		rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
		head := vars[:rng.Intn(len(vars)+1)]
		digests := make([]uint64, len(body))
		for i, l := range body {
			digests[i] = l.Rows.Digest()
		}
		got, err := Eval(context.Background(), body, head)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameRows(t, fmt.Sprintf("trial %d eval %v onto %v", trial, body, head), got, naiveEval(body, head))
		for i, l := range body {
			if l.Rows.Digest() != digests[i] {
				t.Fatalf("trial %d: Eval changed literal %d's table", trial, i)
			}
		}
	}
}

// TestEvalErrors checks that Eval rejects a head variable in no literal, a
// repeated head variable and a table whose arity differs from its
// literal's arguments, and that binding a literal that repeats a variable
// stops at a cancelled context.
func TestEvalErrors(t *testing.T) {
	e := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {2, 2}})
	ctx := context.Background()
	for _, tc := range []struct {
		what string
		body []Literal
		head []string
	}{
		{"head variable in no literal", []Literal{e.literal()}, []string{"z"}},
		{"head variable with no literals", nil, []string{"x"}},
		{"repeated head variable", []Literal{e.literal()}, []string{"x", "x"}},
		{"table arity above its arguments", []Literal{{Args: []string{"x"}, Rows: &e.Table}}, []string{"x"}},
		{"table arity below its arguments", []Literal{{Args: []string{"x", "y", "x"}, Rows: &e.Table}}, nil},
	} {
		if _, err := Eval(ctx, tc.body, tc.head); err == nil {
			t.Errorf("%s: accepted", tc.what)
		}
	}
	big := NewTable(2)
	for i := range 4 * joinCheckEvery {
		big.AddDistinct([]int{i, i})
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := (Literal{Args: []string{"x", "x"}, Rows: big}).Bind(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Bind under a cancelled context: error %v, want context.Canceled", err)
	}
	vars, rows, err := (Literal{Args: []string{"x", "x"}, Rows: big}).Bind(ctx)
	if err != nil || !slices.Equal(vars, []string{"x"}) || rows.Len() != big.Len() {
		t.Fatalf("Bind(x, x) = %v over %d rows, %v; want [x] over %d rows", vars, rows.Len(), err, big.Len())
	}
	if _, rows, _ := e.literal().Bind(ctx); rows != &e.Table {
		t.Fatal("Bind copied a literal whose arguments are distinct")
	}
}

// spread maps r's values v to v·2^21 − 2^20, an injective map onto values
// that are negative or at least 2^20.
func spread(r *Relation) *Relation {
	out := MustNew(r.Attrs()...)
	for _, row := range r.Rows() {
		for j, v := range row {
			row[j] = v<<21 - 1<<20
		}
		out.MustAdd(row)
	}
	return out
}

// JoinAll must be invariant under permutation of its inputs (the planner
// changes the evaluation order, never the result).
func TestJoinAllPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(4)
		rels := make([]*Relation, k)
		for i := range rels {
			rels[i] = randomRel(rng, randomSchema(rng), 1+rng.Intn(4), 8)
		}
		base := JoinAll(rels)
		perm := append([]*Relation(nil), rels...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if !JoinAll(perm).Equal(base) {
			t.Fatalf("trial %d: JoinAll changed under input permutation", trial)
		}
	}
}

// Property: r ⋉ s ≡ π_attrs(r)(r ⋈ s), the semijoin identity, on schemas
// with varying overlap, for the child of a two-node reduced tree.
func TestSemijoinIsProjectedJoinProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, randomSchema(rng), 4, 10)
		s := randomRel(rng, randomSchema(rng), 4, 10)
		viaJoin, err := r.Join(s).Project(r.Attrs()...)
		if err != nil {
			return false
		}
		rs, _ := reduceSemijoin(t, 4, r, s)
		return rs.Equal(viaJoin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzKernelVsNaive drives random operator sequences from a byte seed and
// cross-checks every intermediate against the reference kernel.
func FuzzKernelVsNaive(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(7))
	f.Add(int64(-9), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		dom := 1 + int(shape%6)
		r := randomRel(rng, randomSchema(rng), dom, 14)
		s := randomRel(rng, randomSchema(rng), dom, 14)
		nr, ns := naiveFrom(r), naiveFrom(s)
		j := r.Join(s)
		nj := nr.join(ns)
		if j.Len() != len(nj.tuples) {
			t.Fatalf("join size %d vs reference %d", j.Len(), len(nj.tuples))
		}
		sj, _ := reduceSemijoin(t, dom, r, s)
		nsj := nr.semijoin(ns)
		if sj.Len() != len(nsj.tuples) {
			t.Fatalf("reduced child size %d vs reference semijoin %d", sj.Len(), len(nsj.tuples))
		}
		// Chain one more join to exercise operator-output relations (which
		// carry lazily built indexes) as inputs.
		u := randomRel(rng, randomSchema(rng), dom, 14)
		j2 := j.Join(u)
		nj2 := nj.join(naiveFrom(u))
		if j2.Len() != len(nj2.tuples) {
			t.Fatalf("chained join size %d vs reference %d", j2.Len(), len(nj2.tuples))
		}
		for _, row := range j2.Tuples() {
			if _, ok := nj2.index[naiveKey(row)]; !ok {
				t.Fatalf("chained join row %v missing from reference", row)
			}
		}
	})
}

// Hash collisions must be resolved by value comparison, never trusted. The
// chained index is exercised directly by inserting rows that share a bucket
// by construction: rows hashed on zero columns (a 0-column projection) all
// collide, which is the cartesian-join path, and a dense value grid stresses
// the full-row index — any unverified collision would lose a row or
// fabricate a duplicate.
func TestCollidingRowsAreDistinguished(t *testing.T) {
	r := MustNew("x", "y")
	n := 0
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			r.MustAdd(Tuple{x, y})
			n++
		}
	}
	if r.Len() != n {
		t.Fatalf("lost rows: %d vs %d inserted", r.Len(), n)
	}
	if !r.Has(Tuple{0, 0}) || r.Has(Tuple{64, 64}) {
		t.Fatal("membership wrong after bulk insert")
	}
	// Cartesian join: every build row lives in one hash bucket (no shared
	// attributes), so the probe walks the full collision chain.
	u := MustFromTuples([]string{"z"}, []Tuple{{1}, {2}, {3}})
	if j := u.Join(MustFromTuples([]string{"w"}, []Tuple{{4}, {5}})); j.Len() != 6 {
		t.Fatalf("cartesian join via shared bucket = %d rows, want 6", j.Len())
	}
}

// --- Satellite: defensive accessors ------------------------------------

// Mutating tuples returned by Rows must not corrupt the relation; Tuples is
// documented as view-sharing and must stay cheap.
func TestRowsIsDefensiveCopy(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {3, 4}})
	rows := r.Rows()
	for _, row := range rows {
		row[0], row[1] = 99, 99
	}
	if !r.Has(Tuple{1, 2}) || !r.Has(Tuple{3, 4}) || r.Has(Tuple{99, 99}) {
		t.Fatal("mutating Rows() output corrupted the relation")
	}
	if r.Len() != 2 {
		t.Fatalf("len changed: %d", r.Len())
	}
	// And the membership index still dedups correctly after the mutation.
	r.MustAdd(Tuple{1, 2})
	if r.Len() != 2 {
		t.Fatal("index corrupted: duplicate accepted after Rows mutation")
	}
}

// --- Cancellation and sharing ------------------------------------------

// A cancelled context stops a skewed, exploding join with its error: one
// already cancelled before the call, and one that a timer cancels while
// the join runs.
func TestParallelJoinCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	r := MustNew("x", "y")
	s := MustNew("y", "z")
	for i := 0; i < 16384; i++ {
		// Heavy skew: a few y values, so the output (~6.7e7 rows) explodes
		// and the probe has plenty of work to be cancelled out of.
		r.MustAdd(Tuple{i, rng.Intn(4)})
		s.MustAdd(Tuple{rng.Intn(4), i})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := JoinAllCtx(ctx, []*Relation{r, s}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled join: error %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := JoinAllCtx(ctx, []*Relation{r, s}); !errors.Is(err, context.Canceled) {
		t.Fatalf("join cancelled mid-run: error %v, want context.Canceled", err)
	}
}

// Concurrent joins over shared inputs must be race-free: each runs its own
// pooled pass over the same tables (run under -race in `make check`).
func TestConcurrentJoinsShareInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	r := MustNew("x", "y")
	s := MustNew("y", "z")
	for i := 0; i < 8292; i++ {
		r.MustAdd(Tuple{rng.Intn(2000), rng.Intn(2000)})
		s.MustAdd(Tuple{rng.Intn(2000), rng.Intn(2000)})
	}
	want := r.Join(s).Len()
	done := make(chan int, 4)
	for g := 0; g < 4; g++ {
		go func() { done <- r.Join(s).Len() }()
	}
	for g := 0; g < 4; g++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent join size %d, want %d", got, want)
		}
	}
}
