package treewidth

import (
	"math/rand"
	"reflect"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/graph"
	"csdb/internal/logic"
	"csdb/internal/structure"
)

func TestTrivialDecomposition(t *testing.T) {
	g := graph.Clique(4)
	d := TrivialDecomposition(4)
	if err := d.Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if d.Width() != 3 {
		t.Fatalf("Width = %d", d.Width())
	}
}

func TestValidateCatchesBadDecompositions(t *testing.T) {
	g := graph.Path(3) // edges (0,1),(1,2)
	cases := []struct {
		name string
		d    *Decomposition
	}{
		{"missing vertex", &Decomposition{Bags: [][]int{{0, 1}}, Adj: [][]int{nil}}},
		{"missing edge", &Decomposition{Bags: [][]int{{0, 1}, {2}}, Adj: [][]int{{1}, {0}}}},
		{"disconnected vertex bags", &Decomposition{
			Bags: [][]int{{0, 1}, {1, 2}, {0}},
			Adj:  [][]int{{1}, {0, 2}, {1}},
		}},
		{"cycle in bag graph", &Decomposition{
			Bags: [][]int{{0, 1}, {1, 2}, {1}},
			Adj:  [][]int{{1, 2}, {0, 2}, {0, 1}},
		}},
		{"disconnected bag graph", &Decomposition{
			Bags: [][]int{{0, 1}, {1, 2}},
			Adj:  [][]int{nil, nil},
		}},
		{"no bags", &Decomposition{}},
	}
	for _, c := range cases {
		if err := c.d.Validate(g); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
	good := &Decomposition{Bags: [][]int{{0, 1}, {1, 2}}, Adj: [][]int{{1}, {0}}}
	if err := good.Validate(g); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}
}

func TestHeuristicDecompositionsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*graph.Graph{
		graph.Path(8), graph.Cycle(9), graph.Clique(5), graph.Grid(3, 4), graph.Petersen(),
		randomG(rng, 10, 0.3), randomG(rng, 12, 0.2),
	}
	for gi, g := range graphs {
		for _, h := range []Heuristic{MinFill, MinDegree, MCS} {
			d := Decompose(g, h)
			if err := d.Validate(g); err != nil {
				t.Fatalf("graph %d heuristic %v: %v", gi, h, err)
			}
			if w := WidthOfOrdering(g, Ordering(g, h)); w != d.Width() {
				t.Fatalf("graph %d heuristic %v: ordering width %d != decomposition width %d", gi, h, w, d.Width())
			}
		}
	}
}

func TestKnownTreewidths(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"single vertex", graph.New(1), 0},
		{"edgeless", graph.New(4), 0},
		{"path", graph.Path(6), 1},
		{"cycle", graph.Cycle(6), 2},
		{"K4", graph.Clique(4), 3},
		{"K6", graph.Clique(6), 5},
		{"grid 3x3", graph.Grid(3, 3), 3},
		{"grid 2x5", graph.Grid(2, 5), 2},
		{"petersen", graph.Petersen(), 4},
	}
	for _, c := range cases {
		got, err := Exact(c.g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Fatalf("%s: treewidth = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestExactRejectsLargeGraphs(t *testing.T) {
	if _, err := Exact(graph.New(30)); err == nil {
		t.Fatal("large graph accepted")
	}
}

func TestHeuristicsUpperBoundExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := randomG(rng, 7+rng.Intn(4), 0.35)
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []Heuristic{MinFill, MinDegree, MCS} {
			if w := Decompose(g, h).Width(); w < exact {
				t.Fatalf("trial %d: heuristic %v width %d below exact %d", trial, h, w, exact)
			}
		}
		if w := BestHeuristic(g).Width(); w < exact {
			t.Fatalf("trial %d: best heuristic below exact", trial)
		}
	}
}

func TestIsAtMost(t *testing.T) {
	ok, err := IsAtMost(graph.Cycle(8), 2)
	if err != nil || !ok {
		t.Fatalf("cycle tw<=2: %v %v", ok, err)
	}
	ok, err = IsAtMost(graph.Cycle(8), 1)
	if err != nil || ok {
		t.Fatalf("cycle tw<=1: %v %v", ok, err)
	}
}

func TestPrimalGraph(t *testing.T) {
	p := csp.NewInstance(4, 2)
	p.MustAddConstraint([]int{0, 1, 2}, csp.TableOf(3, []int{0, 0, 0}))
	g := PrimalGraph(p)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 2) {
		t.Fatal("scope clique missing")
	}
	if g.HasEdge(0, 3) || g.N() != 4 {
		t.Fatal("primal graph wrong")
	}
}

func TestSolveDecomposedAgainstMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		p := randomInstance(rng, 3+rng.Intn(5), 2+rng.Intn(2))
		want := csp.Solve(p, csp.Options{}).Found
		res, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Found != want {
			t.Fatalf("trial %d: DP=%v MAC=%v", trial, res.Found, want)
		}
		if res.Found && !p.Satisfies(res.Solution) {
			t.Fatalf("trial %d: invalid DP solution %v", trial, res.Solution)
		}
	}
}

func TestSolveDecomposedTernaryConstraints(t *testing.T) {
	// Exactly-one-of-three over three overlapping triples.
	p := csp.NewInstance(5, 2)
	exactlyOne := csp.TableOf(3, []int{1, 0, 0}, []int{0, 1, 0}, []int{0, 0, 1})
	p.MustAddConstraint([]int{0, 1, 2}, exactlyOne)
	p.MustAddConstraint([]int{1, 2, 3}, exactlyOne)
	p.MustAddConstraint([]int{2, 3, 4}, exactlyOne)
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !p.Satisfies(res.Solution) {
		t.Fatalf("ternary DP failed: %+v", res)
	}
}

func TestSolveDecomposedUnsatisfiable(t *testing.T) {
	// Odd cycle 2-coloring via DP.
	p := csp.MustFromStructures(structure.Cycle(5), structure.Clique(2))
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("odd cycle 2-colored by DP")
	}
	even := csp.MustFromStructures(structure.Cycle(6), structure.Clique(2))
	res, err = Solve(even)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !even.Satisfies(res.Solution) {
		t.Fatal("even cycle not 2-colored by DP")
	}
}

func TestSolveEmptyInstance(t *testing.T) {
	res, err := Solve(csp.NewInstance(0, 2))
	if err != nil || !res.Found {
		t.Fatalf("empty instance: %+v %v", res, err)
	}
}

func TestBuildFormulaVariableBound(t *testing.T) {
	// Proposition 6.1: width-k decomposition -> k+1 variables.
	cases := []*structure.Structure{
		structure.Cycle(8),  // treewidth 2 -> 3 variables
		structure.Path(7),   // treewidth 1 -> 2 variables
		structure.Clique(4), // treewidth 3 -> 4 variables
	}
	for i, a := range cases {
		f, w, err := FormulaForStructure(a)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if nv := logic.NumVariables(f); nv > w+1 {
			t.Fatalf("case %d: %d variables for width %d (bound %d)", i, nv, w, w+1)
		}
		if fv := f.FreeVars(); len(fv) != 0 {
			t.Fatalf("case %d: free variables %v", i, fv)
		}
	}
}

// Theorem 6.2 route: evaluating the bounded-variable formula on B decides
// hom(A,B); must agree with the CSP solver.
func TestBuildFormulaDecidesHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	targets := []*structure.Structure{
		structure.Clique(2), structure.Clique(3), structure.Cycle(5),
	}
	sources := []*structure.Structure{
		structure.Cycle(4), structure.Cycle(5), structure.Cycle(7),
		structure.Path(6), structure.Clique(3),
	}
	for trial := 0; trial < 10; trial++ {
		sources = append(sources, randomSymmetric(rng, 4+rng.Intn(3), 0.4))
	}
	for si, a := range sources {
		f, _, err := FormulaForStructure(a)
		if err != nil {
			t.Fatalf("source %d: %v", si, err)
		}
		for ti, b := range targets {
			got, err := logic.Holds(f, b)
			if err != nil {
				t.Fatalf("source %d target %d: %v", si, ti, err)
			}
			want := csp.HomomorphismExists(a, b)
			if got != want {
				t.Fatalf("source %d target %d: formula=%v hom=%v", si, ti, got, want)
			}
		}
	}
}

func TestBuildFormulaCoversIsolatedElements(t *testing.T) {
	// A structure with an isolated element still yields a valid sentence.
	a := structure.NewGraph(3)
	a.MustAddTuple("E", 0, 1)
	f, _, err := FormulaForStructure(a)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := logic.Holds(f, structure.Clique(2))
	if err != nil || !ok {
		t.Fatalf("isolated element formula: %v %v", ok, err)
	}
}

// TestDecomposeWithinBudget pins the budgeted contract on random graphs:
// whenever BestHeuristic's width fits the budget, DecomposeWithin returns
// that very decomposition, and otherwise it returns nil, false.
func TestDecomposeWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		g := randomG(rng, rng.Intn(41), 0.3*rng.Float64())
		best := BestHeuristic(g)
		for budget := 1; budget <= 5; budget++ {
			d, ok := DecomposeWithin(g, budget)
			if best.Width() <= budget {
				if !ok || !reflect.DeepEqual(d, best) {
					t.Fatalf("trial %d budget %d: DecomposeWithin = %v %+v, BestHeuristic %+v", trial, budget, ok, d, best)
				}
			} else if ok || d != nil {
				t.Fatalf("trial %d budget %d: width %d over budget, DecomposeWithin = %v %+v", trial, budget, best.Width(), ok, d)
			}
		}
	}
}

func randomG(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func randomSymmetric(rng *rand.Rand, n int, p float64) *structure.Structure {
	g := structure.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				structure.AddUndirectedEdge(g, i, j)
			}
		}
	}
	return g
}

func randomInstance(rng *rand.Rand, vars, dom int) *csp.Instance {
	p := csp.NewInstance(vars, dom)
	for i := 0; i < vars; i++ {
		for j := i + 1; j < vars; j++ {
			if rng.Float64() >= 0.5 {
				continue
			}
			tab := csp.NewTable(2)
			for a := 0; a < dom; a++ {
				for b := 0; b < dom; b++ {
					if rng.Float64() < 0.55 {
						tab.Add([]int{a, b})
					}
				}
			}
			p.MustAddConstraint([]int{i, j}, tab)
		}
	}
	return p
}
