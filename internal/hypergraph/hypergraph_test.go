package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"

	"csdb/internal/cq"
	"csdb/internal/csp"
	"csdb/internal/relation"
	"csdb/internal/structure"
)

func TestAddEdgeValidation(t *testing.T) {
	h := New(3)
	if err := h.AddEdge(); err == nil {
		t.Fatal("empty edge accepted")
	}
	if err := h.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	h.MustAddEdge(2, 0, 2)
	if len(h.Edges[0]) != 2 || h.Edges[0][0] != 0 || h.Edges[0][1] != 2 {
		t.Fatalf("edge not deduplicated/sorted: %v", h.Edges[0])
	}
}

func TestGYOAcyclicCases(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Hypergraph
		acyclic bool
	}{
		{"path query", func() *Hypergraph {
			h := New(4)
			h.MustAddEdge(0, 1)
			h.MustAddEdge(1, 2)
			h.MustAddEdge(2, 3)
			return h
		}, true},
		{"triangle", func() *Hypergraph {
			h := New(3)
			h.MustAddEdge(0, 1)
			h.MustAddEdge(1, 2)
			h.MustAddEdge(2, 0)
			return h
		}, false},
		{"triangle plus covering edge", func() *Hypergraph {
			// α-acyclicity is not hereditary: adding the full edge makes it
			// acyclic.
			h := New(3)
			h.MustAddEdge(0, 1)
			h.MustAddEdge(1, 2)
			h.MustAddEdge(2, 0)
			h.MustAddEdge(0, 1, 2)
			return h
		}, true},
		{"star", func() *Hypergraph {
			h := New(5)
			h.MustAddEdge(0, 1)
			h.MustAddEdge(0, 2)
			h.MustAddEdge(0, 3)
			h.MustAddEdge(0, 4)
			return h
		}, true},
		{"cycle of length 4", func() *Hypergraph {
			h := New(4)
			h.MustAddEdge(0, 1)
			h.MustAddEdge(1, 2)
			h.MustAddEdge(2, 3)
			h.MustAddEdge(3, 0)
			return h
		}, false},
		{"disconnected acyclic", func() *Hypergraph {
			h := New(5)
			h.MustAddEdge(0, 1)
			h.MustAddEdge(2, 3)
			h.MustAddEdge(3, 4)
			return h
		}, true},
		{"single edge", func() *Hypergraph {
			h := New(3)
			h.MustAddEdge(0, 1, 2)
			return h
		}, true},
	}
	for _, c := range cases {
		h := c.build()
		acyclic, jt := h.GYO()
		if acyclic != c.acyclic {
			t.Fatalf("%s: acyclic = %v, want %v", c.name, acyclic, c.acyclic)
		}
		if acyclic {
			if err := h.ValidateJoinTree(jt); err != nil {
				t.Fatalf("%s: join tree invalid: %v", c.name, err)
			}
		}
	}
}

// Random acyclic-by-construction hypergraphs (built as join forests) are
// recognized as acyclic and their join trees validate.
func TestGYORandomAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		h := randomAcyclicHypergraph(rng, 3+rng.Intn(5))
		acyclic, jt := h.GYO()
		if !acyclic {
			t.Fatalf("trial %d: acyclic-by-construction hypergraph reported cyclic", trial)
		}
		if err := h.ValidateJoinTree(jt); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// randomAcyclicHypergraph builds a hypergraph as a "join forest": each new
// edge shares vertices with at most one previous edge (a subset of it),
// plus fresh vertices.
func randomAcyclicHypergraph(rng *rand.Rand, edges int) *Hypergraph {
	type edge []int
	var built []edge
	n := 0
	for e := 0; e < edges; e++ {
		var vs []int
		if len(built) > 0 && rng.Float64() < 0.7 {
			prev := built[rng.Intn(len(built))]
			for _, v := range prev {
				if rng.Float64() < 0.5 {
					vs = append(vs, v)
				}
			}
		}
		fresh := 1 + rng.Intn(2)
		for f := 0; f < fresh; f++ {
			vs = append(vs, n)
			n++
		}
		built = append(built, vs)
	}
	h := New(n)
	for _, e := range built {
		h.MustAddEdge(e...)
	}
	return h
}

func TestFromQueryAndInstance(t *testing.T) {
	q := cq.MustParse("Q(X) :- R(X,Y), S(Y,Z), T(Z,X)")
	h, idx, err := FromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 3 || len(h.Edges) != 3 {
		t.Fatalf("hypergraph shape: n=%d m=%d", h.N, len(h.Edges))
	}
	if h.IsAcyclic() {
		t.Fatal("triangle query reported acyclic")
	}
	if idx["X"] == idx["Y"] {
		t.Fatal("variable index broken")
	}

	p := csp.NewInstance(4, 2)
	p.MustAddConstraint([]int{0, 1, 2}, csp.TableOf(3, []int{0, 0, 0}))
	p.MustAddConstraint([]int{2, 3}, csp.TableOf(2, []int{0, 0}))
	hp := FromInstance(p)
	if hp.N != 4 || len(hp.Edges) != 2 || !hp.IsAcyclic() {
		t.Fatalf("instance hypergraph wrong: %+v", hp)
	}
}

func TestYannakakisMatchesNaiveEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := []*cq.Query{
		cq.MustParse("Q(X,W) :- R(X,Y), S(Y,Z), T(Z,W)"),
		cq.MustParse("Q(X) :- R(X,Y), S(Y,Z)"),
		cq.MustParse("Q(X,Y) :- R(X,Y), S(Y,Z), S(Y,W)"),
		cq.MustParse("Q :- R(X,Y), S(Y,Z)"),
		// Branching trees whose head variables sit in different branches,
		// so early projection after each child's join matters.
		cq.MustParse("Q(Y,W) :- R(X,Y), R(X,Z), S(X,W)"),
		cq.MustParse("Q(X,W,V) :- R(X,Y), S(Y,Z), T(Y,W), R(W,V)"),
		cq.MustParse("Q(Z,V) :- R(X,Y), S(Y,Z), T(Y,W), R(W,V), S(X,U)"),
	}
	for trial := 0; trial < 40; trial++ {
		db := randomDB(rng, 4+rng.Intn(3))
		for qi, q := range queries {
			want, err := q.Evaluate(db)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Yannakakis(q, db)
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, qi, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d query %d: yannakakis %v != naive %v", trial, qi, got, want)
			}
		}
	}
}

func TestYannakakisRejectsCyclicQueries(t *testing.T) {
	q := cq.MustParse("Q(X) :- R(X,Y), S(Y,Z), T(Z,X)")
	if _, err := Yannakakis(q, randomDB(rand.New(rand.NewSource(1)), 3)); err == nil {
		t.Fatal("cyclic query accepted")
	}
}

func TestSemijoinReduceRemovesDanglingTuples(t *testing.T) {
	// Chain R(X,Y), S(Y,Z): tuples of R with no S continuation must vanish.
	q := cq.MustParse("Q(X,Z) :- R(X,Y), S(Y,Z)")
	voc := structure.MustVocabulary(
		structure.Symbol{Name: "R", Arity: 2},
		structure.Symbol{Name: "S", Arity: 2},
	)
	db := structure.MustNew(voc, 5)
	db.MustAddTuple("R", 0, 1)
	db.MustAddTuple("R", 2, 3) // dangling: 3 has no S edge
	db.MustAddTuple("S", 1, 4)
	reduced, err := SemijoinReduce(q, db)
	if err != nil {
		t.Fatal(err)
	}
	if reduced[0].Len() != 1 || !reduced[0].Has(relation.Tuple{0, 1}) {
		t.Fatalf("R not reduced: %v", reduced[0])
	}
	if reduced[1].Len() != 1 {
		t.Fatalf("S reduced wrongly: %v", reduced[1])
	}
}

// TestSemijoinReduceIsProjectedJoin: each atom's reduced relation is the
// projection of the join of the whole body onto the atom's variables — on
// chains, stars, atoms that repeat a variable, bodies with no shared
// variable, and joins that come out empty.
func TestSemijoinReduceIsProjectedJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	queries := []*cq.Query{
		cq.MustParse("Q(X,W) :- R(X,Y), S(Y,Z), T(Z,W)"),
		cq.MustParse("Q(X) :- R(X,Y), S(Y,Z), T(Y,W), R(W,V)"),
		cq.MustParse("Q(X) :- R(X,X), S(X,Y), T(Y,Y)"),
		cq.MustParse("Q :- R(X,Y), S(Z,W)"),
		cq.MustParse("Q(X) :- R(X,Y), S(Y,Z), T(Z,U), R(U,V), S(V,W)"),
	}
	empty := 0
	for trial := 0; trial < 40; trial++ {
		db := randomDB(rng, 3+rng.Intn(4))
		for qi, q := range queries {
			all := &cq.Query{Name: "All", Head: q.Vars(), Body: q.Body}
			join, err := all.Evaluate(db)
			if err != nil {
				t.Fatal(err)
			}
			if join.Empty() {
				empty++
			}
			reduced, err := SemijoinReduce(q, db)
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, qi, err)
			}
			for i, r := range reduced {
				want, err := join.Project(r.Attrs()...)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Equal(want) {
					t.Fatalf("trial %d query %d atom %d: reduced %v, projected join %v", trial, qi, i, r, want)
				}
			}
		}
	}
	if empty == 0 {
		t.Fatal("no empty join: the empty case is untested")
	}
}

func TestAcyclicDecompositionWidthOne(t *testing.T) {
	h := New(4)
	h.MustAddEdge(0, 1)
	h.MustAddEdge(1, 2)
	h.MustAddEdge(2, 3)
	d, err := h.AcyclicDecomposition()
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 1 {
		t.Fatalf("acyclic ghw = %d, want 1", d.Width())
	}
	if err := d.Validate(h); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Cyclic hypergraph is rejected.
	tri := New(3)
	tri.MustAddEdge(0, 1)
	tri.MustAddEdge(1, 2)
	tri.MustAddEdge(2, 0)
	if _, err := tri.AcyclicDecomposition(); err == nil {
		t.Fatal("cyclic hypergraph accepted")
	}
}

func TestGHWUpperBound(t *testing.T) {
	// Triangle: ghw is 2 (cover any 2-vertex bag... bags of a width-2 tree
	// decomposition have 3 vertices, covered by 2 edges).
	tri := New(3)
	tri.MustAddEdge(0, 1)
	tri.MustAddEdge(1, 2)
	tri.MustAddEdge(2, 0)
	d, err := tri.GHWUpperBound()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(tri); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.Width() != 2 {
		t.Fatalf("triangle ghw bound = %d, want 2", d.Width())
	}
	// Acyclic: bound via primal graph may exceed 1 but must validate.
	h := New(5)
	h.MustAddEdge(0, 1, 2)
	h.MustAddEdge(2, 3)
	h.MustAddEdge(3, 4)
	d2, err := h.GHWUpperBound()
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Validate(h); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d2.Width() < 1 {
		t.Fatalf("ghw bound = %d", d2.Width())
	}
}

func TestGreedyCoverErrors(t *testing.T) {
	h := New(3)
	h.MustAddEdge(0, 1)
	if _, err := h.GreedyCover([]int{0, 2}); err == nil {
		t.Fatal("uncoverable vertex accepted")
	}
	cover, err := h.GreedyCover([]int{0, 1})
	if err != nil || len(cover) != 1 || cover[0] != 0 {
		t.Fatalf("cover = %v, %v", cover, err)
	}
}

func randomDB(rng *rand.Rand, n int) *structure.Structure {
	voc := structure.MustVocabulary(
		structure.Symbol{Name: "R", Arity: 2},
		structure.Symbol{Name: "S", Arity: 2},
		structure.Symbol{Name: "T", Arity: 2},
	)
	db := structure.MustNew(voc, n)
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.3 {
					db.MustAddTuple(name, i, j)
				}
			}
		}
	}
	return db
}

// Sanity: every GYO join tree for query hypergraphs is usable by Yannakakis
// on random acyclic chain/star queries of varying length.
func TestYannakakisOnGeneratedChains(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for length := 2; length <= 5; length++ {
		body := ""
		for i := 0; i < length; i++ {
			if i > 0 {
				body += ", "
			}
			body += fmt.Sprintf("R(V%d,V%d)", i, i+1)
		}
		q := cq.MustParse(fmt.Sprintf("Q(V0,V%d) :- %s", length, body))
		db := randomDB(rng, 5)
		want, err := q.Evaluate(db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Yannakakis(q, db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("length %d: mismatch", length)
		}
	}
}
