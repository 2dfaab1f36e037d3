package gen

import (
	"bytes"
	"math/rand"
	"testing"

	"csdb/internal/cq"
	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/schaefer"
	"csdb/internal/treewidth"
)

func TestPartialKTreeWidthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 3} {
		for trial := 0; trial < 10; trial++ {
			g, order := PartialKTree(rng, 8+rng.Intn(8), k, 0.2)
			if len(order) != g.N() {
				t.Fatalf("ordering length %d for %d vertices", len(order), g.N())
			}
			if w := treewidth.WidthOfOrdering(g, order); w > k {
				t.Fatalf("k=%d: ordering width %d", k, w)
			}
			d := treewidth.FromOrdering(g, order)
			if err := d.Validate(g); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if d.Width() > k {
				t.Fatalf("k=%d: decomposition width %d", k, d.Width())
			}
		}
	}
}

func TestPartialKTreeSmallN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, order := PartialKTree(rng, 1, 2, 0)
	if g.N() != 3 || len(order) != 3 {
		t.Fatalf("n below k+1 not clamped: n=%d", g.N())
	}
}

func TestModelBShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := ModelB(rng, 10, 4, 1.0, 0.3)
	if p.Vars != 10 || p.Dom != 4 {
		t.Fatalf("shape wrong: %+v", p)
	}
	if len(p.Constraints) != 45 {
		t.Fatalf("density 1.0 should constrain all pairs: %d", len(p.Constraints))
	}
	empty := ModelB(rng, 10, 4, 0, 0.3)
	if len(empty.Constraints) != 0 {
		t.Fatal("density 0 produced constraints")
	}
}

func TestColoringMatchesKColorability(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := RandomGraph(rng, 8, 0.4)
	p := Coloring(g, 3)
	res := csp.Solve(p, csp.Options{})
	if res.Found {
		for _, e := range g.Edges() {
			if res.Solution[e[0]] == res.Solution[e[1]] {
				t.Fatal("invalid coloring accepted")
			}
		}
	}
}

func TestNQueensKnownCounts(t *testing.T) {
	// Classic counts: 4 queens -> 2 solutions; 5 queens -> 10; 3 -> 0.
	if got := csp.CountSolutions(NQueens(4), 0); got != 2 {
		t.Fatalf("4-queens solutions = %d, want 2", got)
	}
	if got := csp.CountSolutions(NQueens(5), 0); got != 10 {
		t.Fatalf("5-queens solutions = %d, want 10", got)
	}
	if got := csp.CountSolutions(NQueens(3), 0); got != 0 {
		t.Fatalf("3-queens solutions = %d, want 0", got)
	}
	if got := csp.CountSolutions(NQueens(6), 0); got != 4 {
		t.Fatalf("6-queens solutions = %d, want 4", got)
	}
}

func TestQueryGenerators(t *testing.T) {
	chain := cq.MustParse(ChainQuery(3))
	if len(chain.Body) != 3 || len(chain.Head) != 2 {
		t.Fatalf("chain query: %s", chain)
	}
	star := cq.MustParse(StarQuery(4))
	if len(star.Body) != 4 || len(star.Head) != 1 {
		t.Fatalf("star query: %s", star)
	}
	cycle := cq.MustParse(CycleQuery(3))
	if len(cycle.Body) != 3 || len(cycle.Head) != 0 {
		t.Fatalf("cycle query: %s", cycle)
	}
}

func TestClosedBoolRelHasClosureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checks := map[schaefer.Class]func(*schaefer.BoolRel) bool{
		schaefer.ZeroValid:  (*schaefer.BoolRel).IsZeroValid,
		schaefer.OneValid:   (*schaefer.BoolRel).IsOneValid,
		schaefer.Horn:       (*schaefer.BoolRel).IsHorn,
		schaefer.DualHorn:   (*schaefer.BoolRel).IsDualHorn,
		schaefer.Bijunctive: (*schaefer.BoolRel).IsBijunctive,
		schaefer.Affine:     (*schaefer.BoolRel).IsAffine,
	}
	for class, check := range checks {
		for trial := 0; trial < 20; trial++ {
			r := ClosedBoolRel(rng, 2+rng.Intn(3), class, 1+rng.Intn(4))
			if !check(r) {
				t.Fatalf("class %v trial %d: generated relation %v lacks the closure property", class, trial, r)
			}
			if r.Len() == 0 {
				t.Fatalf("class %v: empty relation generated", class)
			}
		}
	}
}

func TestCSPOnGraphPrimal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := RandomGraph(rng, 7, 0.5)
	p := CSPOnGraph(rng, g, 3, 0.3)
	pg := treewidth.PrimalGraph(p)
	for _, e := range g.Edges() {
		if !pg.HasEdge(e[0], e[1]) {
			t.Fatalf("primal graph missing edge %v", e)
		}
	}
	if pg.NumEdges() != g.NumEdges() {
		t.Fatalf("primal edges %d != graph edges %d", pg.NumEdges(), g.NumEdges())
	}
}

func TestNotEqualTable(t *testing.T) {
	nt := NotEqualTable(3)
	if nt.Len() != 6 || nt.Has([]int{1, 1}) || !nt.Has([]int{0, 2}) {
		t.Fatalf("NotEqualTable wrong: %v", nt.Tuples())
	}
}

// TestGraphGeneratorsReproducible runs every graph-based generator twice
// from one seed and requires byte-identical instance text: graph edges
// iterate in ascending order, so a seed names one instance.
func TestGraphGeneratorsReproducible(t *testing.T) {
	gens := []struct {
		name string
		gen  func(rng *rand.Rand) *csp.Instance
	}{
		{"RandomGraph", func(rng *rand.Rand) *csp.Instance { return CSPOnGraph(rng, RandomGraph(rng, 30, 0.2), 3, 0.3) }},
		{"RandomGraph-coloring", func(rng *rand.Rand) *csp.Instance { return Coloring(RandomGraph(rng, 30, 0.2), 3) }},
		{"PartialKTree", func(rng *rand.Rand) *csp.Instance {
			g, _ := PartialKTree(rng, 30, 3, 0.3)
			return CSPOnGraph(rng, g, 3, 0.3)
		}},
		{"RandomTree", func(rng *rand.Rand) *csp.Instance { return CSPOnGraph(rng, RandomTree(rng, 30), 3, 0.3) }},
	}
	for _, g := range gens {
		var runs [2]bytes.Buffer
		for i := range runs {
			if err := cspio.Format(&runs[i], g.gen(rand.New(rand.NewSource(19)))); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(runs[0].Bytes(), runs[1].Bytes()) {
			t.Fatalf("%s: two runs from one seed differ:\n%s\n---\n%s", g.name, runs[0].String(), runs[1].String())
		}
	}
}
