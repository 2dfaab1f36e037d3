package relation

import (
	"context"
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
	if !r.Has(Tuple{1, 2}) || r.Has(Tuple{2, 1}) {
		t.Fatal("membership wrong")
	}
}

// AddDistinct builds the same relation as Add from rows that are already a
// set, whether or not the membership index exists yet.
func TestAddDistinctMatchesAdd(t *testing.T) {
	rows := []Tuple{{1, 2}, {2, 3}, {3, 1}}
	want := MustFromTuples([]string{"x", "y"}, rows)
	r := MustNew("x", "y")
	for _, row := range rows[:2] {
		r.AddDistinct(row)
	}
	if !r.Has(Tuple{1, 2}) { // builds the index
		t.Fatal("AddDistinct row missing")
	}
	r.AddDistinct(rows[2]) // appended through the built index
	if !r.Equal(want) || !r.Has(Tuple{3, 1}) {
		t.Fatalf("AddDistinct built %v, want %v", r, want)
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
	if !r.Has(Tuple{7}) || r.Has(Tuple{9}) {
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
	if !q.Has(Tuple{3, 1}) {
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

// TestJoinProbeAllocatesOutputOnce: in a join whose every probe row
// matches eight build rows, the probe counts its output from the build
// chains first and allocates it once, instead of regrowing a buffer sized
// for one match per probe row.
func TestJoinProbeAllocatesOutputOnce(t *testing.T) {
	const n, fan = 1000, 8
	build, probe := NewTable(2), NewTable(1)
	for i := range n {
		probe.Add([]int{i})
		for j := range fan {
			build.Add([]int{i, j})
		}
	}
	var pl Poller
	var jt joinTable
	if err := buildJoinTable(&pl, &jt, build, []int{0}, 0); err != nil {
		t.Fatal(err)
	}
	heads := make([]int32, n)
	rows := 0
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if _, rows, err = joinProbe(&pl, &jt, probe, []int{0}, []int{1}, heads, nil); err != nil {
			t.Fatal(err)
		}
	})
	if rows != n*fan {
		t.Fatalf("%d output rows, want %d", rows, n*fan)
	}
	if allocs != 1 {
		t.Fatalf("the probe allocated %v times per run, want once", allocs)
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
	it, err := r.Table.Intersect(&s.Table)
	if err != nil {
		t.Fatalf("Intersect: %v", err)
	}
	i := MustNew("x", "y")
	i.Table = *it
	if !j.Equal(i) {
		t.Fatalf("join-on-same-schema %v != intersection %v", j, i)
	}
}

func TestSemijoin(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {2, 3}, {4, 4}})
	s := MustFromTuples([]string{"y", "z"}, []Tuple{{2, 0}, {4, 0}})
	sj, _ := reduceSemijoin(t, 5, r, s)
	want := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {4, 4}})
	if !sj.Equal(want) {
		t.Fatalf("semijoin = %v, want %v", sj, want)
	}
}

func TestSemijoinDisjointSchemas(t *testing.T) {
	r := MustFromTuples([]string{"x"}, []Tuple{{1}})
	nonempty := MustFromTuples([]string{"y"}, []Tuple{{2}})
	empty := MustNew("y")
	if got, _ := reduceSemijoin(t, 3, r, nonempty); !got.Equal(r) {
		t.Fatal("semijoin with disjoint nonempty relation should be identity")
	}
	if got, _ := reduceSemijoin(t, 3, r, empty); !got.Empty() {
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
		if rs, _ := reduceSemijoin(t, 4, r, s); !rs.Equal(viaJoin) {
			t.Fatalf("trial %d: semijoin != project(join): r=%v s=%v", trial, r, s)
		}
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
			if !r.Has(t) {
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
	if !r.Equal(MustFromTuples([]string{"y", "x"}, []Tuple{{2, 1}})) {
		t.Fatal("the same relation with its columns swapped is not equal")
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

// TestPollerFirstPollDoesNotYield pins the Poller's quantum clock to its
// construction: a poll within yieldQuantum of NewPoller, the first one
// included, does not yield, and a poll after it does.
func TestPollerFirstPollDoesNotYield(t *testing.T) {
	p := NewPoller(context.Background())
	made := p.resumed
	if made.IsZero() {
		t.Fatal("NewPoller left the quantum clock unset")
	}
	p.countdown = 1
	if err := p.Tick(); err != nil || p.resumed != made {
		t.Fatalf("first poll: error %v, yielded %v", err, p.resumed != made)
	}
	p.resumed = made.Add(-2 * yieldQuantum)
	p.countdown = 1
	if err := p.Tick(); err != nil || !p.resumed.After(made) {
		t.Fatalf("poll after the quantum: error %v, yielded %v", err, p.resumed.After(made))
	}
}
