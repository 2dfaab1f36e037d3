package consistency

import (
	"context"
	"math/rand"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/hypergraph"
	"csdb/internal/structure"
)

// solveTree is the tree route: the dispatcher sends a tree-structured
// instance to the join-tree engine as an α-acyclic one, over GYO's join
// tree of its constraint forest. (The old mask-based solver is the route
// differential's oracle in internal/dispatch.)
func solveTree(p *csp.Instance) (csp.Result, error) {
	return hypergraph.SolveAcyclicCSP(context.Background(), p, nil)
}

func TestIsTreeStructured(t *testing.T) {
	// Path coloring: tree-structured.
	path := csp.MustFromStructures(structure.Path(5), structure.Clique(2))
	if !IsTreeStructured(path) {
		t.Fatal("path not recognized as tree-structured")
	}
	// Cycle: not a forest.
	cyc := csp.MustFromStructures(structure.Cycle(5), structure.Clique(3))
	if IsTreeStructured(cyc) {
		t.Fatal("cycle recognized as tree-structured")
	}
	// Ternary constraint: not binary.
	tern := csp.NewInstance(3, 2)
	tern.MustAddConstraint([]int{0, 1, 2}, csp.TableOf(3, []int{0, 0, 0}))
	if IsTreeStructured(tern) {
		t.Fatal("ternary instance recognized as tree-structured")
	}
	// Repeated-variable binary scope normalizes to unary: still a tree.
	rep := csp.NewInstance(2, 2)
	rep.MustAddConstraint([]int{0, 0}, csp.TableOf(2, []int{0, 0}, []int{1, 1}))
	rep.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{0, 1}))
	if !IsTreeStructured(rep) {
		t.Fatal("repeated-variable scope broke tree detection")
	}
}

func TestSolveTreeRejectsNonTrees(t *testing.T) {
	cyc := csp.MustFromStructures(structure.Cycle(4), structure.Clique(2))
	if _, err := solveTree(cyc); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestSolveTreeOnPathColoring(t *testing.T) {
	p := csp.MustFromStructures(structure.Path(7), structure.Clique(2))
	res, err := solveTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !p.Satisfies(res.Solution) {
		t.Fatalf("path coloring failed: %+v", res)
	}
}

// randomTreeInstance builds a random binary CSP whose primal graph is a
// random tree (plus unary constraints).
func randomTreeInstance(rng *rand.Rand, n, d int) *csp.Instance {
	p := csp.NewInstance(n, d)
	for v := 1; v < n; v++ {
		pa := rng.Intn(v)
		tab := csp.NewTable(2)
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				if rng.Float64() < 0.5 {
					tab.Add([]int{a, b})
				}
			}
		}
		if rng.Intn(2) == 0 {
			p.MustAddConstraint([]int{pa, v}, tab)
		} else {
			p.MustAddConstraint([]int{v, pa}, tab)
		}
	}
	// A few unary constraints.
	for v := 0; v < n; v += 3 {
		tab := csp.NewTable(1)
		for a := 0; a < d; a++ {
			if rng.Float64() < 0.7 {
				tab.Add([]int{a})
			}
		}
		if tab.Len() > 0 {
			p.MustAddConstraint([]int{v}, tab)
		}
	}
	return p
}

// Freuder's theorem, checked against the complete solver: the tree route and
// MAC agree on satisfiability, and the tree route's solutions are valid.
func TestSolveTreeAgainstMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		p := randomTreeInstance(rng, 2+rng.Intn(8), 2+rng.Intn(3))
		res, err := solveTree(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := csp.Solve(p, csp.Options{}).Found
		if res.Found != want {
			t.Fatalf("trial %d: tree=%v mac=%v", trial, res.Found, want)
		}
		if res.Found && !p.Satisfies(res.Solution) {
			t.Fatalf("trial %d: invalid solution", trial)
		}
	}
}

// Multiple constraints between the same pair of variables (both
// orientations) must all be honored.
func TestSolveTreeParallelConstraints(t *testing.T) {
	p := csp.NewInstance(2, 3)
	p.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{0, 1}, []int{1, 2}))
	p.MustAddConstraint([]int{1, 0}, csp.TableOf(2, []int{1, 0}, []int{0, 2}))
	// Consistent pairs: (0,1) from first ∧ (1,0)-flipped={(0,1)}... the
	// joint solutions are assignments (x0,x1) with (x0,x1) in first table
	// and (x1,x0) in second: (0,1) works since (1,0) in second.
	res, err := solveTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !p.Satisfies(res.Solution) {
		t.Fatalf("parallel constraints: %+v", res)
	}
	want := csp.Solve(p, csp.Options{}).Found
	if res.Found != want {
		t.Fatalf("tree=%v mac=%v", res.Found, want)
	}
}

func TestSolveTreeDisconnected(t *testing.T) {
	// Two components, one unsatisfiable via unary wipeout.
	p := csp.NewInstance(4, 2)
	p.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{0, 1}))
	p.MustAddConstraint([]int{2, 3}, csp.TableOf(2, []int{1, 1}))
	p.MustAddConstraint([]int{3}, csp.TableOf(1, []int{0}))
	res, err := solveTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("unsatisfiable component not detected")
	}
}
