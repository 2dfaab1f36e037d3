package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadSchemas(t *testing.T) {
	if _, err := New("a", "a"); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
	if _, err := New("a", ""); err == nil {
		t.Fatal("empty attribute accepted")
	}
	r, err := New("x", "y")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if r.Arity() != 2 || !r.Empty() {
		t.Fatalf("fresh relation malformed: arity=%d len=%d", r.Arity(), r.Len())
	}
}

func TestAddDeduplicatesAndChecksArity(t *testing.T) {
	r := MustNew("x", "y")
	r.MustAdd(Tuple{1, 2})
	r.MustAdd(Tuple{1, 2})
	if r.Len() != 1 {
		t.Fatalf("dedup failed: len=%d", r.Len())
	}
	if err := r.Add(Tuple{1}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if !r.Contains(Tuple{1, 2}) || r.Contains(Tuple{2, 1}) {
		t.Fatal("membership wrong")
	}
}

// AddDistinct builds the same relation as Add from rows that are already a
// set, whether or not the membership index exists yet, and keeps the
// distinct-count statistics fresh.
func TestAddDistinctMatchesAdd(t *testing.T) {
	rows := []Tuple{{1, 2}, {2, 3}, {3, 1}}
	want := MustFromTuples([]string{"x", "y"}, rows)
	r := MustNew("x", "y")
	for _, row := range rows[:2] {
		r.AddDistinct(row)
	}
	if d, _ := r.distinctCounts(&poller{}); d[0] != 2 {
		t.Fatalf("distinct counts %v before the last row", d)
	}
	if !r.Contains(Tuple{1, 2}) { // builds the index
		t.Fatal("AddDistinct row missing")
	}
	r.AddDistinct(rows[2]) // appended through the built index
	if !r.Equal(want) || !r.Contains(Tuple{3, 1}) {
		t.Fatalf("AddDistinct built %v, want %v", r, want)
	}
	if d, _ := r.distinctCounts(&poller{}); d[0] != 3 {
		t.Fatalf("stale distinct counts %v after AddDistinct", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch accepted")
		}
	}()
	r.AddDistinct(Tuple{1})
}

func TestAddClonesTuple(t *testing.T) {
	r := MustNew("x")
	src := Tuple{7}
	r.MustAdd(src)
	src[0] = 9
	if !r.Contains(Tuple{7}) || r.Contains(Tuple{9}) {
		t.Fatal("relation aliases caller tuple")
	}
}

func TestProject(t *testing.T) {
	r := MustFromTuples([]string{"x", "y", "z"}, []Tuple{{1, 2, 3}, {1, 2, 4}, {5, 6, 7}})
	p, err := r.Project("x", "y")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	want := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {5, 6}})
	if !p.Equal(want) {
		t.Fatalf("projection = %v, want %v", p, want)
	}
	if _, err := r.Project("nope"); err == nil {
		t.Fatal("projection on unknown attribute accepted")
	}
	// Reordering projection.
	q, err := r.Project("z", "x")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if !q.Contains(Tuple{3, 1}) {
		t.Fatal("reordered projection wrong")
	}
}

func TestJoinBasic(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {2, 3}})
	s := MustFromTuples([]string{"y", "z"}, []Tuple{{2, 10}, {2, 11}, {4, 12}})
	j := r.Join(s)
	want := MustFromTuples([]string{"x", "y", "z"}, []Tuple{{1, 2, 10}, {1, 2, 11}})
	if !j.Equal(want) {
		t.Fatalf("join = %v, want %v", j, want)
	}
}

func TestJoinDisjointIsCartesianProduct(t *testing.T) {
	r := MustFromTuples([]string{"x"}, []Tuple{{1}, {2}})
	s := MustFromTuples([]string{"y"}, []Tuple{{8}, {9}})
	j := r.Join(s)
	if j.Len() != 4 {
		t.Fatalf("cartesian product size = %d, want 4", j.Len())
	}
}

func TestJoinIdenticalSchemaIsIntersection(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {3, 4}})
	s := MustFromTuples([]string{"x", "y"}, []Tuple{{3, 4}, {5, 6}})
	j := r.Join(s)
	i, err := r.Intersect(s)
	if err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	if !j.Equal(i) {
		t.Fatalf("join-on-same-schema %v != intersection %v", j, i)
	}
}

func TestSemijoin(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {2, 3}, {4, 4}})
	s := MustFromTuples([]string{"y", "z"}, []Tuple{{2, 0}, {4, 0}})
	sj := r.Semijoin(s)
	want := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {4, 4}})
	if !sj.Equal(want) {
		t.Fatalf("semijoin = %v, want %v", sj, want)
	}
}

func TestSemijoinDisjointSchemas(t *testing.T) {
	r := MustFromTuples([]string{"x"}, []Tuple{{1}})
	nonempty := MustFromTuples([]string{"y"}, []Tuple{{2}})
	empty := MustNew("y")
	if got := r.Semijoin(nonempty); !got.Equal(r) {
		t.Fatal("semijoin with disjoint nonempty relation should be identity")
	}
	if got := r.Semijoin(empty); !got.Empty() {
		t.Fatal("semijoin with disjoint empty relation should be empty")
	}
}

func TestSemijoinAgreesWithJoinProject(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		r := randomRelation(rng, []string{"a", "b"}, 4, 8)
		s := randomRelation(rng, []string{"b", "c"}, 4, 8)
		viaJoin, err := r.Join(s).Project("a", "b")
		if err != nil {
			t.Fatalf("project: %v", err)
		}
		if !r.Semijoin(s).Equal(viaJoin) {
			t.Fatalf("trial %d: semijoin != project(join): r=%v s=%v", trial, r, s)
		}
	}
}

func TestRename(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}})
	ren, err := r.Rename(map[string]string{"x": "u"})
	if err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if !ren.HasAttr("u") || ren.HasAttr("x") || !ren.HasAttr("y") {
		t.Fatalf("rename produced schema %v", ren.Attrs())
	}
	if _, err := r.Rename(map[string]string{"x": "y"}); err == nil {
		t.Fatal("rename creating duplicate attribute accepted")
	}
}

func TestUnionIntersectAlignOrder(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}})
	s := MustFromTuples([]string{"y", "x"}, []Tuple{{2, 1}, {9, 8}})
	u, err := r.Union(s)
	if err != nil {
		t.Fatalf("Union: %v", err)
	}
	if u.Len() != 2 || !u.Contains(Tuple{8, 9}) {
		t.Fatalf("union wrong: %v", u)
	}
	i, err := r.Intersect(s)
	if err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	if i.Len() != 1 || !i.Contains(Tuple{1, 2}) {
		t.Fatalf("intersection wrong: %v", i)
	}
	if _, err := r.Union(MustNew("x", "z")); err == nil {
		t.Fatal("union across mismatched schemas accepted")
	}
}

func TestJoinAllEmptyInputIsIdentity(t *testing.T) {
	id := JoinAll(nil)
	if id.Arity() != 0 || id.Len() != 1 {
		t.Fatalf("join identity malformed: arity=%d len=%d", id.Arity(), id.Len())
	}
}

func TestJoinAllMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schemas := [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"}}
	for trial := 0; trial < 50; trial++ {
		rels := make([]*Relation, len(schemas))
		for i, sch := range schemas {
			rels[i] = randomRelation(rng, sch, 3, 6)
		}
		got := JoinAll(rels)
		want := rels[0]
		for _, r := range rels[1:] {
			want = want.Join(r)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: JoinAll != left fold", trial)
		}
	}
}

func TestSortedTuples(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{2, 1}, {1, 9}, {1, 2}})
	s := r.SortedTuples()
	want := []Tuple{{1, 2}, {1, 9}, {2, 1}}
	for i := range want {
		if !s[i].Equal(want[i]) {
			t.Fatalf("sorted[%d] = %v, want %v", i, s[i], want[i])
		}
	}
}

// Property: join is commutative up to attribute order.
func TestJoinCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, []string{"a", "b"}, 4, 10)
		s := randomRelation(rng, []string{"b", "c"}, 4, 10)
		return r.Join(s).Equal(s.Join(r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: join is associative.
func TestJoinAssociativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, []string{"a", "b"}, 3, 8)
		s := randomRelation(rng, []string{"b", "c"}, 3, 8)
		u := randomRelation(rng, []string{"c", "a"}, 3, 8)
		return r.Join(s).Join(u).Equal(r.Join(s.Join(u)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: projection of a join onto one side's attributes is contained in
// that side.
func TestJoinProjectionContainmentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, []string{"a", "b"}, 4, 10)
		s := randomRelation(rng, []string{"b", "c"}, 4, 10)
		p, err := r.Join(s).Project("a", "b")
		if err != nil {
			return false
		}
		for _, t := range p.Tuples() {
			if !r.Contains(t) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomRelation(rng *rand.Rand, attrs []string, dom, n int) *Relation {
	r := MustNew(attrs...)
	for i := 0; i < n; i++ {
		t := make(Tuple, len(attrs))
		for j := range t {
			t[j] = rng.Intn(dom)
		}
		r.MustAdd(t)
	}
	return r
}

func TestSelectAndSelectEq(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {2, 2}, {3, 4}})
	even := r.Select(func(t Tuple) bool { return t[0]%2 == 0 })
	if even.Len() != 1 || !even.Contains(Tuple{2, 2}) {
		t.Fatalf("Select = %v", even)
	}
	eq, err := r.SelectEq("y", 2)
	if err != nil || eq.Len() != 2 {
		t.Fatalf("SelectEq = %v, %v", eq, err)
	}
	if _, err := r.SelectEq("z", 0); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestPosAndString(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}})
	if r.Pos("y") != 1 || r.Pos("nope") != -1 {
		t.Fatalf("Pos wrong: %d %d", r.Pos("y"), r.Pos("nope"))
	}
	s := r.String()
	if s != "(x,y){[1,2]}" {
		t.Fatalf("String = %q", s)
	}
}

func TestEqualEdgeCases(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}})
	if r.Equal(MustNew("x", "z")) {
		t.Fatal("different schemas equal")
	}
	if r.Equal(MustNew("x", "y")) {
		t.Fatal("different cardinalities equal")
	}
	s := MustFromTuples([]string{"x", "y"}, []Tuple{{2, 1}})
	if r.Equal(s) {
		t.Fatal("different tuples equal")
	}
	if !r.Equal(r.Clone()) {
		t.Fatal("clone not equal")
	}
}

func TestFromTuplesErrors(t *testing.T) {
	if _, err := FromTuples([]string{"x", "x"}, nil); err == nil {
		t.Fatal("duplicate attrs accepted")
	}
	if _, err := FromTuples([]string{"x"}, []Tuple{{1, 2}}); err == nil {
		t.Fatal("bad arity accepted")
	}
}

func TestMustPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("MustNew", func() { MustNew("a", "a") })
	assertPanics("MustFromTuples", func() { MustFromTuples([]string{"a"}, []Tuple{{1, 2}}) })
	assertPanics("MustAdd", func() { MustNew("a").MustAdd(Tuple{1, 2}) })
}
