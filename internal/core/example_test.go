package core_test

import (
	"context"
	"fmt"

	"csdb/internal/core"
	"csdb/internal/structure"
)

// The central equivalence of the paper: one problem, several views.
func Example() {
	// Is the 5-cycle 3-colorable? As a homomorphism problem: C5 -> K3.
	p, err := core.FromStructures(structure.Cycle(5), structure.Clique(3))
	if err != nil {
		panic(err)
	}
	res, err := p.Solve(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("3-colorable:", res.Satisfiable)

	// The same object as a Boolean conjunctive query (Proposition 2.3).
	q, db, err := p.Query()
	if err != nil {
		panic(err)
	}
	truth, err := q.True(db)
	if err != nil {
		panic(err)
	}
	fmt.Println("phi_A true in B:", truth)

	// Exact solution count (proper 3-colorings of C5): (3-1)^5 - (3-1) = 30.
	n, err := p.Count()
	if err != nil {
		panic(err)
	}
	fmt.Println("colorings:", n)
	// Output:
	// 3-colorable: true
	// phi_A true in B: true
	// colorings: 30
}

func ExampleProblem_Solve() {
	p, err := core.FromStructures(structure.Path(5), structure.Clique(3))
	if err != nil {
		panic(err)
	}
	res, err := p.Solve(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Satisfiable, res.Route)
	fmt.Println(res.Explanation)
	// Output:
	// true tree
	// route tree: tree-structured binary instance: join-tree engine over its forest of constraints (Freuder, the width-1 case)
}
