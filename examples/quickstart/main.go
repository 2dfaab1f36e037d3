// Quickstart: one problem, four views.
//
// The paper's central observation (Section 2) is that a constraint-
// satisfaction problem, a homomorphism problem, a conjunctive-query
// evaluation, and a conjunctive-query containment check are the same thing.
// This example builds a single problem — 3-coloring the Petersen graph —
// and decides it through each view.
package main

import (
	"context"
	"fmt"
	"log"

	"csdb/internal/core"
	"csdb/internal/cq"
	"csdb/internal/csp"
	"csdb/internal/graph"
	"csdb/internal/hcolor"
	"csdb/internal/structure"
)

func main() {
	petersen := graph.Petersen()

	// View 1: H-coloring / homomorphism. G is 3-colorable iff G -> K3.
	g := hcolor.ToStructure(petersen)
	k3 := structure.Clique(3)
	problem, err := core.FromStructures(g, k3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := problem.Solve(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("explain:", res.Explanation)
	fmt.Printf("homomorphism view: 3-colorable = %v, coloring = %v\n",
		res.Satisfiable, res.Assignment)

	// View 2: the classic CSP formulation (V, D, C) — variables are
	// vertices, values are colors, constraints are disequalities on edges.
	inst := problem.CSP()
	fmt.Printf("CSP view: %d variables, %d values, %d constraints\n",
		inst.Vars, inst.Dom, len(inst.Constraints))
	direct := csp.Solve(inst, csp.Options{})
	fmt.Printf("CSP view: MAC search found a solution in %d nodes\n", direct.Stats.Nodes)

	// View 3: join evaluation (Proposition 2.1) — the instance is solvable
	// iff the natural join of its constraint relations is nonempty.
	join := csp.JoinSolve(inst)
	fmt.Printf("join view: join nonempty = %v (Prop 2.1 agrees: %v)\n",
		join.Found, join.Found == res.Satisfiable)

	// View 4: Boolean conjunctive query (Proposition 2.3) — φ_G is true in
	// K3 iff G -> K3.
	q, db, err := problem.Query()
	if err != nil {
		log.Fatal(err)
	}
	truth, err := q.True(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query view: φ_G has %d subgoals; φ_G true in K3 = %v\n",
		len(q.Body), truth)

	// And 2-colorability fails, through the containment view: φ_{K2} ⊆ φ_G
	// would mean G -> K2 (Prop 2.3); the Chandra-Merlin check denies it.
	phiG, err := cq.StructureQuery(g)
	if err != nil {
		log.Fatal(err)
	}
	phiK2, err := cq.StructureQuery(structure.Clique(2))
	if err != nil {
		log.Fatal(err)
	}
	contained, err := cq.Contains(phiK2, phiG)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("containment view: φ_K2 ⊆ φ_G = %v, so Petersen is 2-colorable = %v\n",
		contained, contained)
}
