package cq

import (
	"math/rand"
	"strings"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/relation"
	"csdb/internal/structure"
)

func TestParseRoundTrip(t *testing.T) {
	q := MustParse("Q(X1,X2) :- P(X1,Z1,Z2), R(Z2,Z3), R(Z3,X2).")
	if q.Name != "Q" || len(q.Head) != 2 || len(q.Body) != 3 {
		t.Fatalf("parse shape wrong: %+v", q)
	}
	if q.Body[0].Pred != "P" || len(q.Body[0].Args) != 3 {
		t.Fatalf("first subgoal wrong: %+v", q.Body[0])
	}
	q2 := MustParse(q.String())
	if q2.String() != q.String() {
		t.Fatalf("round trip changed query: %q vs %q", q.String(), q2.String())
	}
}

func TestParseBooleanQuery(t *testing.T) {
	q := MustParse("Q :- E(X,Y), E(Y,X)")
	if len(q.Head) != 0 || len(q.Body) != 2 {
		t.Fatalf("boolean query wrong: %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Q(X)",                      // no body
		"Q(X) :- ",                  // empty body
		"Q(X) :- R(X,",              // unbalanced
		"Q(X) :- R()",               // empty args
		"Q(X) :- R(X), R(X,Y)",      // inconsistent arity
		"Q(X,Y) :- R(X,X)",          // unsafe head var Y
		"Q(X,X) :- R(X,X)",          // repeated head var
		"Q(1X) :- R(1X)",            // bad identifier
		"Q(X) :- R(X) extra stuff(", // junk
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Fatalf("accepted %q", s)
		}
	}
}

func TestVars(t *testing.T) {
	q := MustParse("Q(Y) :- R(X,Y), S(Y,Z)")
	got := q.Vars()
	want := []string{"Y", "X", "Z"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestCanonicalDB(t *testing.T) {
	q := MustParse("Q(X1,X2) :- P(X1,Z1,Z2), R(Z2,Z3), R(Z3,X2)")
	db, idx, err := q.CanonicalDB(nil, true)
	if err != nil {
		t.Fatalf("CanonicalDB: %v", err)
	}
	if db.Size() != 5 {
		t.Fatalf("canonical db domain = %d, want 5", db.Size())
	}
	if !db.HasTuple("P", idx["X1"], idx["Z1"], idx["Z2"]) {
		t.Fatal("P fact missing")
	}
	if !db.HasTuple("R", idx["Z2"], idx["Z3"]) || !db.HasTuple("R", idx["Z3"], idx["X2"]) {
		t.Fatal("R facts missing")
	}
	if !db.HasTuple("Pdist0", idx["X1"]) || !db.HasTuple("Pdist1", idx["X2"]) {
		t.Fatal("distinguished markers missing")
	}
	// Without markers, the vocabulary has only P and R.
	db2, _, err := q.CanonicalDB(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Voc().Has("Pdist0") {
		t.Fatal("unexpected marker predicate")
	}
}

func TestEvaluatePathQuery(t *testing.T) {
	// Q(X,Y) :- E(X,Z), E(Z,Y): pairs connected by a path of length 2.
	q := MustParse("Q(X,Y) :- E(X,Z), E(Z,Y)")
	g := structure.NewGraph(4)
	g.MustAddTuple("E", 0, 1)
	g.MustAddTuple("E", 1, 2)
	g.MustAddTuple("E", 2, 3)
	res, err := q.Evaluate(g)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	want := relation.MustFromTuples([]string{"X", "Y"}, []relation.Tuple{{0, 2}, {1, 3}})
	if !res.Equal(want) {
		t.Fatalf("Q(g) = %v, want %v", res, want)
	}
}

func TestEvaluateRepeatedVariableInAtom(t *testing.T) {
	// Q(X) :- E(X,X): loops only.
	q := MustParse("Q(X) :- E(X,X)")
	g := structure.NewGraph(3)
	g.MustAddTuple("E", 0, 1)
	g.MustAddTuple("E", 2, 2)
	res, err := q.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Has(relation.Tuple{2}) {
		t.Fatalf("loops = %v", res)
	}
}

func TestEvaluateBooleanAndMissingPredicate(t *testing.T) {
	q := MustParse("Q :- E(X,Y), F(Y)")
	g := structure.NewGraph(2)
	g.MustAddTuple("E", 0, 1)
	ok, err := q.True(g) // F absent -> empty -> false
	if err != nil || ok {
		t.Fatalf("True = %v, %v", ok, err)
	}
	q2 := MustParse("Q :- E(X,Y)")
	ok2, err := q2.True(g)
	if err != nil || !ok2 {
		t.Fatalf("True = %v, %v", ok2, err)
	}
}

func TestEvaluateArityMismatch(t *testing.T) {
	q := MustParse("Q(X) :- E(X,X,X)")
	if _, err := q.Evaluate(structure.NewGraph(2)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestContainmentClassicExamples(t *testing.T) {
	// Path-of-length-3 query is contained in path-of-length-1-free... use
	// standard examples:
	// Q1(X,Y) :- E(X,Z), E(Z,Y)            (paths of length 2)
	// Q2(X,Y) :- E(X,Z), E(Z,W), E(W,Y)    (paths of length 3)
	// Neither contains the other in general.
	q1 := MustParse("Q(X,Y) :- E(X,Z), E(Z,Y)")
	q2 := MustParse("Q(X,Y) :- E(X,Z), E(Z,W), E(W,Y)")
	for name, f := range map[string]func(a, b *Query) (bool, error){
		"eval": Contains, "hom": ContainsViaHomomorphism,
	} {
		c12, err := f(q1, q2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c21, err := f(q2, q1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c12 || c21 {
			t.Fatalf("%s: unexpected containment c12=%v c21=%v", name, c12, c21)
		}
	}

	// A query is contained in a more general one: triangle ⊆ edge.
	tri := MustParse("Q(X) :- E(X,Y), E(Y,Z), E(Z,X)")
	edge := MustParse("Q(X) :- E(X,Y)")
	got, err := Contains(tri, edge)
	if err != nil || !got {
		t.Fatalf("triangle ⊆ edge: %v %v", got, err)
	}
	rev, err := Contains(edge, tri)
	if err != nil || rev {
		t.Fatalf("edge ⊆ triangle: %v %v", rev, err)
	}

	// Equivalence up to a redundant subgoal.
	qa := MustParse("Q(X,Y) :- E(X,Y)")
	qb := MustParse("Q(X,Y) :- E(X,Y), E(X,Z)")
	eq, err := Equivalent(qa, qb)
	if err != nil || !eq {
		t.Fatalf("redundant-subgoal equivalence: %v %v", eq, err)
	}
}

func TestContainmentHeadArityMismatch(t *testing.T) {
	q1 := MustParse("Q(X) :- E(X,Y)")
	q2 := MustParse("Q(X,Y) :- E(X,Y)")
	if _, err := Contains(q1, q2); err == nil {
		t.Fatal("head arity mismatch accepted")
	}
	if _, err := ContainsViaHomomorphism(q1, q2); err == nil {
		t.Fatal("head arity mismatch accepted (hom)")
	}
}

// Proposition 2.2: both decision procedures agree on random queries.
func TestChandraMerlinAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		q1 := randomQuery(rng)
		q2 := randomQuery(rng)
		a, err := Contains(q1, q2)
		if err != nil {
			t.Fatalf("trial %d: %v\nq1=%s\nq2=%s", trial, err, q1, q2)
		}
		b, err := ContainsViaHomomorphism(q1, q2)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if a != b {
			t.Fatalf("trial %d: eval=%v hom=%v\nq1=%s\nq2=%s", trial, a, b, q1, q2)
		}
	}
}

// Containment is sound: if Q1 ⊆ Q2 then Q1(D) ⊆ Q2(D) on sampled databases.
func TestContainmentSoundOnRandomDatabases(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 60; trial++ {
		q1, q2 := randomQuery(rng), randomQuery(rng)
		contained, err := Contains(q1, q2)
		if err != nil || !contained {
			continue
		}
		for d := 0; d < 5; d++ {
			db := randomGraphStructure(rng, 2+rng.Intn(3), 0.5)
			r1, err := q1.Evaluate(db)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := q2.Evaluate(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, tup := range r1.Tuples() {
				row := make(relation.Tuple, len(tup))
				for i, v := range q1.Head {
					row[r2.Pos(q2.Head[i])] = tup[r1.Pos(v)]
				}
				if !r2.Has(row) {
					t.Fatalf("trial %d: containment violated on db: %v in Q1 but not Q2\nq1=%s\nq2=%s", trial, tup, q1, q2)
				}
			}
		}
	}
}

// Proposition 2.3: hom(A,B) ⇔ φ_A true in B ⇔ φ_B ⊆ φ_A.
func TestProposition23(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		a := randomGraphStructure(rng, 3+rng.Intn(2), 0.5)
		b := randomGraphStructure(rng, 2+rng.Intn(2), 0.5)
		if a.NumTuples() == 0 || b.NumTuples() == 0 {
			continue
		}
		checked++
		hom := csp.HomomorphismExists(a, b)
		phiA, err := StructureQuery(a)
		if err != nil {
			t.Fatal(err)
		}
		phiB, err := StructureQuery(b)
		if err != nil {
			t.Fatal(err)
		}
		trueInB, err := phiA.True(b)
		if err != nil {
			t.Fatal(err)
		}
		contained, err := Contains(phiB, phiA)
		if err != nil {
			t.Fatal(err)
		}
		if trueInB != hom || contained != hom {
			t.Fatalf("trial %d: hom=%v phiA(B)=%v phiB⊆phiA=%v", trial, hom, trueInB, contained)
		}
	}
	if checked < 20 {
		t.Fatalf("too few nontrivial trials: %d", checked)
	}
}

// randomQuery builds a random connected-ish binary query over E with a
// random head.
func randomQuery(rng *rand.Rand) *Query {
	nVars := 2 + rng.Intn(3)
	vars := make([]string, nVars)
	for i := range vars {
		vars[i] = string(rune('X'+i%3)) + strings.Repeat("v", i/3)
	}
	nAtoms := 1 + rng.Intn(3)
	q := &Query{Name: "Q"}
	for i := 0; i < nAtoms; i++ {
		q.Body = append(q.Body, Atom{Pred: "E", Args: []string{
			vars[rng.Intn(nVars)], vars[rng.Intn(nVars)],
		}})
	}
	// Head: one variable that occurs in the body.
	q.Head = []string{q.Body[0].Args[rng.Intn(2)]}
	return q
}

func randomGraphStructure(rng *rand.Rand, n int, p float64) *structure.Structure {
	g := structure.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				g.MustAddTuple("E", i, j)
			}
		}
	}
	return g
}

// TestEvaluateBooleanQuery evaluates a Boolean query whose body repeats a
// variable and has two components: the answer is the 0-ary relation,
// holding the empty row iff the body is satisfiable.
func TestEvaluateBooleanQuery(t *testing.T) {
	q := MustParse("Q :- E(X,Y), E(Y,X), E(Z,Z)")
	g := structure.NewGraph(3)
	g.MustAddTuple("E", 0, 1)
	g.MustAddTuple("E", 1, 0)
	for _, loop := range []bool{false, true} {
		if loop {
			g.MustAddTuple("E", 2, 2)
		}
		res, err := q.Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Arity() != 0 || res.Len() != map[bool]int{false: 0, true: 1}[loop] {
			t.Fatalf("loop %v: Evaluate = %v, want arity 0 and %v rows", loop, res, loop)
		}
	}
}
