// Timetabling with bounded treewidth.
//
// Scheduling is one of the paper's motivating CSP applications (Section 1);
// Section 6 shows that instances whose constraint graph has bounded
// treewidth are solvable in polynomial time. Course-conflict graphs are
// often tree-like (departments form sparse clusters), so the decomposition
// DP of Theorem 6.2 is the right solver — this example builds such an
// instance, inspects its width, and compares the DP against plain search.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"csdb/internal/csp"
	"csdb/internal/gen"
	"csdb/internal/treewidth"
)

const slots = 4 // timeslots per day

func main() {
	rng := rand.New(rand.NewSource(7))

	// Conflict graph: clustered departments bridged by a few shared courses
	// — generated as a partial 2-tree so the width bound is known.
	conflicts, order := gen.PartialKTree(rng, 60, 2, 0.15)
	inst := gen.Coloring(conflicts, slots) // conflicting courses need different slots

	// Some courses must be in the morning (slots 0-1): unary restrictions.
	inst.Domains = make([][]int, inst.Vars)
	for v := 0; v < inst.Vars; v += 7 {
		inst.Domains[v] = []int{0, 1}
	}

	dec := treewidth.FromOrdering(conflicts, order)
	fmt.Printf("%d courses, %d conflicts, decomposition width %d (so DP cost ~ n·%d^%d)\n",
		conflicts.N(), conflicts.NumEdges(), dec.Width(), slots, dec.Width()+1)

	t0 := time.Now()
	res, err := treewidth.SolveDecomposed(context.Background(), inst, dec)
	if err != nil {
		log.Fatal(err)
	}
	dpTime := time.Since(t0)
	if !res.Found {
		fmt.Println("no feasible timetable")
		return
	}
	fmt.Printf("decomposition DP: feasible timetable in %v (%d DP nodes)\n",
		dpTime.Round(time.Microsecond), res.Stats.Nodes)

	t0 = time.Now()
	search := csp.Solve(inst, csp.Options{})
	fmt.Printf("MAC search:       feasible=%v in %v (%d search nodes)\n",
		search.Found, time.Since(t0).Round(time.Microsecond), search.Stats.Nodes)

	if !inst.Satisfies(res.Solution) {
		log.Fatal("DP produced an invalid timetable")
	}

	// Print the first few assignments.
	fmt.Println("\nslot assignments (first 14 courses):")
	for v := 0; v < 14; v++ {
		fmt.Printf("  course %2d -> slot %d\n", v, res.Solution[v])
	}

	// Verify no conflict is violated.
	violations := 0
	for _, e := range conflicts.Edges() {
		if res.Solution[e[0]] == res.Solution[e[1]] {
			violations++
		}
	}
	fmt.Printf("\nconflict violations: %d\n", violations)
}
