// A guided tour of the paper's dichotomies.
//
// Section 3 of the paper presents the two landmark classifications of
// non-uniform CSP(B): Schaefer's theorem for Boolean templates and the
// Hell–Nešetřil theorem for undirected graphs. This example classifies a
// zoo of templates on both sides, runs the matching solver, and finishes
// with Section 4's unifying Datalog view: the canonical 2-Datalog program
// for a template, built mechanically, agreeing with the pebble game.
package main

import (
	"context"
	"fmt"
	"log"

	"csdb/internal/datalog"
	"csdb/internal/graph"
	"csdb/internal/hcolor"
	"csdb/internal/pebble"
	"csdb/internal/schaefer"
	"csdb/internal/structure"
)

func main() {
	fmt.Println("=== Schaefer's dichotomy (Boolean templates) ===")
	zoo := []struct {
		name string
		tpl  *schaefer.Template
	}{
		{"2-SAT clauses", &schaefer.Template{Rels: []*schaefer.BoolRel{
			schaefer.RelClause(true, true), schaefer.RelClause(true, false), schaefer.RelClause(false, false),
		}}},
		{"Horn clauses", &schaefer.Template{Rels: []*schaefer.BoolRel{
			schaefer.RelClause(false, false, true), schaefer.RelClause(true), schaefer.RelClause(false),
		}}},
		{"linear equations mod 2", &schaefer.Template{Rels: []*schaefer.BoolRel{
			schaefer.RelXor(), schaefer.RelEq(),
		}}},
		{"positive 1-in-3-SAT", &schaefer.Template{Rels: []*schaefer.BoolRel{
			schaefer.RelOneInThree(),
		}}},
		{"not-all-equal 3-SAT", &schaefer.Template{Rels: []*schaefer.BoolRel{
			schaefer.RelNAE3(),
		}}},
	}
	for _, z := range zoo {
		classes := z.tpl.Classify()
		if len(classes) > 0 {
			fmt.Printf("%-24s -> tractable %v\n", z.name, classes)
		} else {
			fmt.Printf("%-24s -> NP-complete (no Schaefer class)\n", z.name)
		}
	}

	// Solve a small instance over the hardest tractable template.
	affine := &schaefer.Template{Rels: []*schaefer.BoolRel{schaefer.RelXor(), schaefer.RelEq()}}
	inst := &schaefer.Instance{Template: affine, NumVars: 4, Cons: []schaefer.Application{
		{Rel: 0, Scope: []int{0, 1}}, // x0 ⊕ x1 = 1
		{Rel: 0, Scope: []int{1, 2}}, // x1 ⊕ x2 = 1
		{Rel: 1, Scope: []int{2, 3}}, // x2 = x3
	}}
	sol, class, err := schaefer.Solve(context.Background(), inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("affine system solved by the %v solver: sat=%v assignment=%v\n\n", *class, sol.Found, sol.Solution)

	fmt.Println("=== Hell–Nešetřil dichotomy (graph templates) ===")
	loop := graph.New(1)
	loop.AddEdge(0, 0)
	graphs := []struct {
		name string
		h    *graph.Graph
	}{
		{"K2 (2-coloring)", graph.Clique(2)},
		{"C6", graph.Cycle(6)},
		{"K3 (3-coloring)", graph.Clique(3)},
		{"C5", graph.Cycle(5)},
		{"Petersen", graph.Petersen()},
		{"reflexive vertex", loop},
	}
	for _, g := range graphs {
		fmt.Printf("%-20s -> %v\n", g.name, hcolor.Classify(g.h))
	}
	res, err := hcolor.Solve(graph.Petersen(), graph.Clique(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Petersen -> K3 (NP side, by search): exists=%v\n\n", res.Exists)

	fmt.Println("=== Section 4: the canonical Datalog view ===")
	k2 := structure.Clique(2)
	prog, err := datalog.CanonicalProgram(k2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("canonical 2-Datalog program for B = K2: %d rules, width %d\n",
		len(prog.Rules), prog.Width())
	for _, a := range []struct {
		name string
		g    *structure.Structure
	}{
		{"C4", structure.Cycle(4)},
		{"C5", structure.Cycle(5)},
		{"K3", structure.Clique(3)},
	} {
		byProg, err := datalog.GoalTrue(prog, datalog.GraphEDB(a.g))
		if err != nil {
			log.Fatal(err)
		}
		byGame, err := pebble.SpoilerWins(a.g, k2, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s vs K2: canonical program says Spoiler wins = %v, game algorithm agrees = %v\n",
			a.name, byProg, byProg == byGame)
	}
	fmt.Println("\n(with only 2 pebbles the Spoiler cannot catch odd cycles — that needs k=3,")
	fmt.Println(" which is why the paper's non-2-colorability program of Section 4 uses 4 variables)")
}
