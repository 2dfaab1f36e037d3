package logic

import (
	"math/rand"
	"slices"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/relation"
	"csdb/internal/structure"
)

func TestFreeVarsAndString(t *testing.T) {
	// Ex.(E(x,y) & E(y,x))
	f := &Exists{Var: "x", Body: &And{Conjuncts: []Formula{
		&Atom{Pred: "E", Args: []string{"x", "y"}},
		&Atom{Pred: "E", Args: []string{"y", "x"}},
	}}}
	fv := f.FreeVars()
	if len(fv) != 1 || fv[0] != "y" {
		t.Fatalf("FreeVars = %v", fv)
	}
	if NumVariables(f) != 2 {
		t.Fatalf("NumVariables = %d", NumVariables(f))
	}
	if Size(f) != 4 {
		t.Fatalf("Size = %d", Size(f))
	}
	if f.String() != "Ex.(E(x,y) & E(y,x))" {
		t.Fatalf("String = %q", f.String())
	}
}

func TestSatRelationAtom(t *testing.T) {
	g := structure.NewGraph(3)
	g.MustAddTuple("E", 0, 1)
	g.MustAddTuple("E", 2, 2)
	r, err := SatRelation(&Atom{Pred: "E", Args: []string{"x", "y"}}, g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("atom relation = %v", r)
	}
	// Repeated variable: loops only.
	loops, err := SatRelation(&Atom{Pred: "E", Args: []string{"x", "x"}}, g)
	if err != nil {
		t.Fatal(err)
	}
	if loops.Len() != 1 || !loops.Has(relation.Tuple{2}) {
		t.Fatalf("loops = %v", loops)
	}
	// Missing predicate: empty.
	miss, err := SatRelation(&Atom{Pred: "F", Args: []string{"x"}}, g)
	if err != nil || !miss.Empty() {
		t.Fatalf("missing predicate: %v %v", miss, err)
	}
	// Arity mismatch: error.
	if _, err := SatRelation(&Atom{Pred: "E", Args: []string{"x", "y", "z"}}, g); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestEmptyConjunctionIsTrue(t *testing.T) {
	ok, err := Holds(&And{}, structure.NewGraph(2))
	if err != nil || !ok {
		t.Fatalf("empty conjunction: %v %v", ok, err)
	}
}

func TestHoldsRejectsFreeVariables(t *testing.T) {
	if _, err := Holds(&Atom{Pred: "E", Args: []string{"x", "y"}}, structure.NewGraph(2)); err == nil {
		t.Fatal("free variables accepted")
	}
}

func TestVacuousQuantifier(t *testing.T) {
	// Ez.E(x,y) with z not occurring: equivalent to E(x,y) on nonempty
	// domains.
	g := structure.NewGraph(2)
	g.MustAddTuple("E", 0, 1)
	f := &Exists{Var: "z", Body: &Atom{Pred: "E", Args: []string{"x", "y"}}}
	r, err := SatRelation(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || !r.Has(relation.Tuple{0, 1}) {
		t.Fatalf("vacuous quantifier result = %v", r)
	}
}

func TestStructureSentenceMatchesHomomorphism(t *testing.T) {
	// Proposition 2.3 in formula form: φ_A true in B iff hom(A,B).
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		a := randomGraph(rng, 3+rng.Intn(2), 0.5)
		b := randomGraph(rng, 2+rng.Intn(2), 0.5)
		f := StructureSentence(a)
		got, err := Holds(f, b)
		if err != nil {
			t.Fatal(err)
		}
		want := csp.HomomorphismExists(a, b)
		if got != want {
			t.Fatalf("trial %d: Holds=%v hom=%v", trial, got, want)
		}
	}
}

func TestStructureSentenceVariableCount(t *testing.T) {
	c4 := structure.Cycle(4)
	f := StructureSentence(c4)
	if NumVariables(f) != 4 {
		t.Fatalf("NumVariables = %d, want 4", NumVariables(f))
	}
	if len(f.FreeVars()) != 0 {
		t.Fatal("sentence has free variables")
	}
}

// A hand-built 3-variable sentence expressing "there is a homomorphic image
// of C4" — reusing variables: Ex Ey (E(x,y) & Ez(E(y,z) & Ex'(...))) —
// evaluated against cycles.
func TestVariableReuse(t *testing.T) {
	// Ex.Ey.( E(x,y) & Ez.( E(y,z) & Ey.( E(z,y) & ... ) ) ) expressing a
	// walk of length 3; any graph with an edge and no dead ends satisfies it.
	walk3 := &Exists{Var: "x", Body: &Exists{Var: "y", Body: &And{Conjuncts: []Formula{
		&Atom{Pred: "E", Args: []string{"x", "y"}},
		&Exists{Var: "x", Body: &And{Conjuncts: []Formula{
			&Atom{Pred: "E", Args: []string{"y", "x"}},
			&Exists{Var: "y", Body: &Atom{Pred: "E", Args: []string{"x", "y"}}},
		}}},
	}}}}
	if NumVariables(walk3) != 2 {
		t.Fatalf("reused variables counted wrong: %d", NumVariables(walk3))
	}
	ok, err := Holds(walk3, structure.Cycle(5))
	if err != nil || !ok {
		t.Fatalf("walk of length 3 in C5: %v %v", ok, err)
	}
	ok, err = Holds(walk3, structure.NewGraph(3))
	if err != nil || ok {
		t.Fatalf("walk of length 3 in empty graph: %v %v", ok, err)
	}
}

func randomGraph(rng *rand.Rand, n int, p float64) *structure.Structure {
	g := structure.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				g.MustAddTuple("E", i, j)
			}
		}
	}
	return g
}

// TestQuantifierOverAbsentVariable checks ∃ over a conjunction in which
// the bound variable does not occur: it is the conjunction on a nonempty
// domain and false on the empty one.
func TestQuantifierOverAbsentVariable(t *testing.T) {
	loop := &Exists{Var: "x", Body: &Atom{Pred: "E", Args: []string{"x", "x"}}}
	for _, f := range []Formula{
		&Exists{Var: "z", Body: &And{}},
		&Exists{Var: "z", Body: &And{Conjuncts: []Formula{&And{}, &And{}}}},
		&Exists{Var: "z", Body: &And{Conjuncts: []Formula{loop}}},
	} {
		for _, n := range []int{0, 1} {
			g := structure.NewGraph(n)
			if n > 0 {
				g.MustAddTuple("E", 0, 0)
			}
			got, err := Holds(f, g)
			if err != nil || got != (n > 0) {
				t.Errorf("%v on %d vertices: %v, %v; want %v", f, n, got, err, n > 0)
			}
		}
	}
}

// TestSatRelationOverFreeVars checks that a formula's satisfying relation
// is over its free variables in FreeVars order, for quantifier chains,
// quantified conjuncts and a variable bound inside and free outside.
func TestSatRelationOverFreeVars(t *testing.T) {
	g := structure.Cycle(4)
	e := func(x, y string) Formula { return &Atom{Pred: "E", Args: []string{x, y}} }
	for _, f := range []Formula{
		&Exists{Var: "x", Body: &Exists{Var: "z", Body: &And{Conjuncts: []Formula{e("x", "y"), e("z", "w")}}}},
		&And{Conjuncts: []Formula{e("y", "x"), &Exists{Var: "y", Body: e("x", "y")}}},
		&Exists{Var: "y", Body: &And{Conjuncts: []Formula{e("x", "y"), &Exists{Var: "x", Body: e("y", "x")}}}},
	} {
		r, err := SatRelation(f, g)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.Attrs(), f.FreeVars()) || r.Empty() {
			t.Errorf("%v: relation over %v with %d rows, want over %v and nonempty", f, r.Attrs(), r.Len(), f.FreeVars())
		}
	}
}
