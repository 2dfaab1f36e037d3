package hypergraph

import (
	"context"
	"math/rand"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/gen"
)

// Differential gate for the acyclic CSP solver: on random instances whose
// constraint hypergraph is α-acyclic by construction, SolveAcyclicCSP must
// agree with the generic search engine on satisfiability, and any solution
// it returns must actually satisfy the instance (the solver verifies this
// itself; the test asserts it once more from the outside).
func TestSolveAcyclicDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		edges := 2 + rng.Intn(8)
		d := 2 + rng.Intn(3)
		tight := 0.15 + 0.5*rng.Float64()
		p := gen.AcyclicCSP(rng, edges, 3, d, tight)

		got, err := SolveAcyclicCSP(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("trial %d: SolveAcyclicCSP: %v", trial, err)
		}
		want := csp.Solve(p, csp.Options{})
		if got.Found != want.Found {
			t.Fatalf("trial %d (%d vars, %d cons, d=%d): acyclic=%v search=%v",
				trial, p.Vars, len(p.Constraints), d, got.Found, want.Found)
		}
		if got.Found && !p.Satisfies(got.Solution) {
			t.Fatalf("trial %d: returned non-solution %v", trial, got.Solution)
		}
	}
}

func TestSolveAcyclicRejectsCyclic(t *testing.T) {
	// A binary triangle: the constraint hypergraph is the 3-cycle, which is
	// not α-acyclic.
	p := csp.NewInstance(3, 2)
	tbl := gen.NotEqualTable(2)
	p.MustAddConstraint([]int{0, 1}, tbl)
	p.MustAddConstraint([]int{1, 2}, tbl)
	p.MustAddConstraint([]int{2, 0}, tbl)
	if _, err := SolveAcyclicCSP(context.Background(), p, nil); err == nil {
		t.Fatal("cyclic instance accepted")
	}
}

func TestSolveAcyclicEdgeCases(t *testing.T) {
	// No variables at all: trivially satisfiable.
	res, err := SolveAcyclicCSP(context.Background(), csp.NewInstance(0, 2), nil)
	if err != nil || !res.Found {
		t.Fatalf("empty instance: found=%v err=%v", res.Found, err)
	}

	// Variables but no constraints: satisfiable, every variable assigned
	// from its domain.
	p := csp.NewInstance(3, 3)
	p.Domains = [][]int{{2}, nil, {1, 2}}
	res, err = SolveAcyclicCSP(context.Background(), p, nil)
	if err != nil || !res.Found {
		t.Fatalf("unconstrained instance: found=%v err=%v", res.Found, err)
	}
	if res.Solution[0] != 2 {
		t.Fatalf("domain restriction ignored: got %v", res.Solution)
	}

	// An empty domain makes the instance unsatisfiable outright.
	p = csp.NewInstance(2, 2)
	p.Domains = [][]int{{}, nil}
	res, err = SolveAcyclicCSP(context.Background(), p, nil)
	if err != nil || res.Found {
		t.Fatalf("empty domain: found=%v err=%v", res.Found, err)
	}

	// Domain restrictions must also prune constraint tables: x=y with
	// disjoint domains is UNSAT even though the table itself is nonempty.
	p = csp.NewInstance(2, 3)
	p.Domains = [][]int{{0}, {1, 2}}
	eq := csp.TableOf(2, []int{0, 0}, []int{1, 1}, []int{2, 2})
	p.MustAddConstraint([]int{0, 1}, eq)
	res, err = SolveAcyclicCSP(context.Background(), p, nil)
	if err != nil || res.Found {
		t.Fatalf("disjoint-domain equality: found=%v err=%v", res.Found, err)
	}

	// Repeated scope variables are normalized away, not mis-joined.
	p = csp.NewInstance(2, 2)
	diag := csp.TableOf(2, []int{0, 0}, []int{1, 0})
	p.MustAddConstraint([]int{0, 0}, diag) // forces x0 = 0
	res, err = SolveAcyclicCSP(context.Background(), p, nil)
	if err != nil || !res.Found || res.Solution[0] != 0 {
		t.Fatalf("repeated-scope constraint: res=%+v err=%v", res, err)
	}
}

// A stale or foreign join tree must never corrupt a verdict. The solver
// trusts its witness instead of re-validating it, so a tree that is not a
// forest over the constraints is refused with an error (the dispatcher then
// reroutes); and a well-formed tree without the connectedness property
// still cannot flip a verdict, because a message never loses a row some
// solution uses: it refutes only unsatisfiable instances, and an extraction
// it misleads ends in an error, not a non-solution.
func TestSolveAcyclicStaleJoinTree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		p := gen.AcyclicCSP(rng, 6, 3, 3, 0.3)
		want, err := SolveAcyclicCSP(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		m := len(p.Constraints)
		malformed := []*JoinTree{
			{Parent: []int{-1}, Root: 0},      // wrong edge count
			{Parent: make([]int, m), Root: 5}, // every edge its own or 0's child: a cycle
		}
		for i, jt := range malformed {
			if got, err := SolveAcyclicCSP(context.Background(), p, jt); err == nil {
				t.Fatalf("trial %d: malformed jt %d accepted (found=%v)", trial, i, got.Found)
			}
		}
		chain := make([]int, m) // a path in constraint order: a forest, rarely a join tree
		for i := range chain {
			chain[i] = i - 1
		}
		got, err := SolveAcyclicCSP(context.Background(), p, &JoinTree{Parent: chain, Root: 0})
		switch {
		case err != nil:
			// refused: the dispatcher would reroute
		case got.Found != want.Found:
			t.Fatalf("trial %d: a foreign join tree changed the verdict: %v vs %v", trial, got.Found, want.Found)
		case got.Found && !p.Satisfies(got.Solution):
			t.Fatalf("trial %d: a foreign join tree produced a non-solution", trial)
		}
	}
}
