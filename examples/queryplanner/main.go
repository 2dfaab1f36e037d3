// A miniature query planner: containment-based rewriting plus structural
// join planning.
//
// The database-theory side of the paper: conjunctive-query containment
// (Section 2) lets an optimizer drop redundant subgoals; GYO acyclicity and
// Yannakakis evaluation (Section 6) let it pick a semijoin plan for acyclic
// queries instead of a naive join pipeline.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"csdb/internal/cq"
	"csdb/internal/hypergraph"
	"csdb/internal/structure"
)

func main() {
	// A query with a redundant subgoal: the second R(X,Z2) adds nothing.
	verbose := cq.MustParse("Q(X,Y) :- R(X,Z), S(Z,Y), R(X,Z2)")
	minimal := cq.MustParse("Q(X,Y) :- R(X,Z), S(Z,Y)")
	eq, err := cq.Equivalent(verbose, minimal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("containment check: %q ≡ %q : %v\n", verbose, minimal, eq)

	// Structural analysis of the minimal query.
	h, _, err := hypergraph.FromQuery(minimal)
	if err != nil {
		log.Fatal(err)
	}
	acyclic, _ := h.GYO()
	fmt.Printf("query hypergraph acyclic: %v -> plan: Yannakakis semijoin program\n", acyclic)

	// A cyclic query cannot use that plan.
	cyclic := cq.MustParse("Q(X) :- R(X,Y), S(Y,Z), T(Z,X)")
	hc, _, err := hypergraph.FromQuery(cyclic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cyclic query %q acyclic: %v -> plan: generic join\n", cyclic, hc.IsAcyclic())

	// Execute both plans on a synthetic database and compare. The database
	// is layered with wide fanout but almost all paths dead-end before the
	// last hop — the situation where the semijoin full reducer shines.
	longChain := cq.MustParse("Q(A,E) :- R(A,B), S(B,C), R(C,D), S(D,E)")
	db := syntheticDB(50, 6)
	t0 := time.Now()
	fast, err := hypergraph.Yannakakis(longChain, db)
	if err != nil {
		log.Fatal(err)
	}
	yTime := time.Since(t0)
	t0 = time.Now()
	slow, err := longChain.Evaluate(db)
	if err != nil {
		log.Fatal(err)
	}
	nTime := time.Since(t0)
	fmt.Printf("yannakakis: %d result tuples in %v\n", fast.Len(), yTime.Round(time.Microsecond))
	fmt.Printf("naive join: %d result tuples in %v\n", slow.Len(), nTime.Round(time.Microsecond))
	fmt.Printf("plans agree: %v\n", fast.Equal(slow))

	// The semijoin pass alone shows how many dangling tuples existed.
	reduced, err := hypergraph.SemijoinReduce(longChain, db)
	if err != nil {
		log.Fatal(err)
	}
	body, err := longChain.Literals(db)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range reduced {
		_, full, err := body[i].Bind(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("atom %v: %d tuples, %d after full reduction\n",
			longChain.Body[i], full.Len(), r.Len())
	}
}

// syntheticDB builds a layered database: R edges fan out from layer 0 to 1
// and from layer 2 to 3; S edges connect layer 1 to 2 and layer 3 to 4 —
// but only one S edge survives at the last hop, so almost every partial
// path is dangling. Semijoin reduction prunes them before joining.
func syntheticDB(width, fanout int) *structure.Structure {
	rng := rand.New(rand.NewSource(42))
	voc := structure.MustVocabulary(
		structure.Symbol{Name: "R", Arity: 2},
		structure.Symbol{Name: "S", Arity: 2},
	)
	db := structure.MustNew(voc, 5*width)
	id := func(layer, i int) int { return layer*width + i }
	for i := 0; i < width; i++ {
		for f := 0; f < fanout; f++ {
			db.MustAddTuple("R", id(0, i), id(1, rng.Intn(width)))
			db.MustAddTuple("S", id(1, i), id(2, rng.Intn(width)))
			db.MustAddTuple("R", id(2, i), id(3, rng.Intn(width)))
		}
	}
	db.MustAddTuple("S", id(3, 0), id(4, 0)) // the single surviving last hop
	return db
}
