// Package csdb_bench holds the benchmark harness: one benchmark per
// reproduction experiment E1–E12 (see DESIGN.md and EXPERIMENTS.md), each
// exercising the measured kernel of the corresponding table. Run with
//
//	go test -bench=. -benchmem
package csdb_bench

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"csdb/internal/automata"
	"csdb/internal/consistency"
	"csdb/internal/cq"
	"csdb/internal/csp"
	"csdb/internal/datalog"
	"csdb/internal/digraph"
	"csdb/internal/gen"
	"csdb/internal/graph"
	"csdb/internal/hcolor"
	"csdb/internal/hypergraph"
	"csdb/internal/logic"
	"csdb/internal/pebble"
	"csdb/internal/rpq"
	"csdb/internal/schaefer"
	"csdb/internal/structure"
	"csdb/internal/treewidth"
)

// E1 — Proposition 2.1: join evaluation vs MAC search on model-B instances.

func BenchmarkE1_JoinSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := gen.ModelB(rng, 10, 3, 0.5, 0.35)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csp.JoinSolve(inst)
	}
}

func BenchmarkE1_MACSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := gen.ModelB(rng, 10, 3, 0.5, 0.35)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csp.Solve(inst, csp.Options{})
	}
}

// E2 — Proposition 2.2: the two containment procedures.

func BenchmarkE2_ContainmentViaEvaluation(b *testing.B) {
	q1 := cq.MustParse(gen.ChainQuery(8))
	q2 := cq.MustParse(gen.ChainQuery(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := cq.Contains(q1, q2); err != nil || !ok {
			b.Fatal("containment failed")
		}
	}
}

func BenchmarkE2_ContainmentViaHomomorphism(b *testing.B) {
	q1 := cq.MustParse(gen.ChainQuery(8))
	q2 := cq.MustParse(gen.ChainQuery(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := cq.ContainsViaHomomorphism(q1, q2); err != nil || !ok {
			b.Fatal("containment failed")
		}
	}
}

// E3 — Schaefer classes: dedicated solver vs generic search on a Horn
// template, and generic search on the NP-side 1-in-3 template.

func schaeferHornInstance(n int) *schaefer.Instance {
	rng := rand.New(rand.NewSource(3))
	tpl := &schaefer.Template{Rels: []*schaefer.BoolRel{
		schaefer.RelClause(false, false, true),
		schaefer.RelClause(true),
		schaefer.RelClause(false),
	}}
	inst := &schaefer.Instance{Template: tpl, NumVars: n}
	for c := 0; c < 2*n; c++ {
		ri := rng.Intn(len(tpl.Rels))
		scope := make([]int, tpl.Rels[ri].Arity())
		for i := range scope {
			scope[i] = rng.Intn(n)
		}
		inst.Cons = append(inst.Cons, schaefer.Application{Rel: ri, Scope: scope})
	}
	return inst
}

func BenchmarkE3_HornSolver(b *testing.B) {
	inst := schaeferHornInstance(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schaefer.SolveHorn(context.Background(), inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_GenericSearchOnHorn(b *testing.B) {
	inst := schaeferHornInstance(60)
	q, err := inst.ToCSP()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csp.Solve(q, csp.Options{})
	}
}

func BenchmarkE3_GenericSearchOneInThree(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tpl := &schaefer.Template{Rels: []*schaefer.BoolRel{schaefer.RelOneInThree()}}
	inst := &schaefer.Instance{Template: tpl, NumVars: 24}
	for c := 0; c < 52; c++ {
		inst.Cons = append(inst.Cons, schaefer.Application{
			Rel: 0, Scope: []int{rng.Intn(24), rng.Intn(24), rng.Intn(24)},
		})
	}
	q, err := inst.ToCSP()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csp.Solve(q, csp.Options{})
	}
}

// E4 — Hell–Nešetřil: bipartite template vs K3 on the same inputs.

func BenchmarkE4_BipartiteTemplate(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := gen.RandomGraph(rng, 60, 4.5/60)
	h := graph.Cycle(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hcolor.Solve(g, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4_K3Template(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := gen.RandomGraph(rng, 60, 4.5/60)
	h := graph.Clique(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hcolor.Solve(g, h); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 — Theorem 4.5: k-pebble game decision, polynomial in n for fixed k.
// C41 and C61 are odd cycles, where the Spoiler wins and the fixpoint
// removes every one of the ~10^5 functions it starts from.

func BenchmarkE5_PebbleGame(b *testing.B) {
	for _, n := range []int{6, 10, 14, 41, 61} {
		b.Run(fmt.Sprintf("C%d_vs_K2_k3", n), func(b *testing.B) {
			a := structure.Cycle(n)
			k2 := structure.Clique(2)
			for i := 0; i < b.N; i++ {
				if _, err := pebble.LargestStrategy(a, k2, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E6 — the three non-2-colorability deciders.

func e6Graph() (*graph.Graph, *structure.Structure) {
	rng := rand.New(rand.NewSource(6))
	g := gen.RandomGraph(rng, 10, 0.25)
	s := structure.NewGraph(10)
	for _, e := range g.Edges() {
		structure.AddUndirectedEdge(s, e[0], e[1])
	}
	return g, s
}

// BenchmarkE6_DatalogNon2Col runs the Datalog decider on E6's graph and on
// a 200-vertex random graph of average degree 4 (p = 4/n, seed 1), where
// the rules' joins, not the fixpoint's bookkeeping, dominate.
func BenchmarkE6_DatalogNon2Col(b *testing.B) {
	_, small := e6Graph()
	large := structure.NewGraph(200)
	for _, e := range gen.RandomGraph(rand.New(rand.NewSource(1)), 200, 4.0/200).Edges() {
		structure.AddUndirectedEdge(large, e[0], e[1])
	}
	prog := datalog.NonTwoColorability()
	for _, s := range []*structure.Structure{small, large} {
		b.Run(fmt.Sprintf("n%d", s.Size()), func(b *testing.B) {
			edb := datalog.GraphEDB(s)
			for i := 0; i < b.N; i++ {
				if _, err := datalog.GoalTrue(prog, edb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE6_PebbleNon2Col(b *testing.B) {
	_, s := e6Graph()
	k2 := structure.Clique(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pebble.SpoilerWins(s, k2, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_BFSNon2Col(b *testing.B) {
	g, _ := e6Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.IsBipartite()
	}
}

// E7 — establishing strong k-consistency, and propagation levels in search.

func BenchmarkE7_EstablishStrongK(b *testing.B) {
	a := structure.Cycle(6)
	k3 := structure.Clique(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := consistency.EstablishStrongK(a, k3, 2); err != nil || !ok {
			b.Fatal("establishment failed")
		}
	}
}

func BenchmarkE7_SearchBT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	inst := gen.ModelB(rng, 14, 4, 0.5, 0.45)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csp.Solve(inst, csp.Options{Algorithm: csp.BT})
	}
}

func BenchmarkE7_SearchMAC(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	inst := gen.ModelB(rng, 14, 4, 0.5, 0.45)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csp.Solve(inst, csp.Options{Algorithm: csp.MAC})
	}
}

// E8 — Proposition 6.1: building and evaluating the (k+1)-variable formula.

func BenchmarkE8_BuildFormula(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g, order := gen.PartialKTree(rng, 30, 2, 0.1)
	a := structure.NewGraph(g.N())
	for _, e := range g.Edges() {
		structure.AddUndirectedEdge(a, e[0], e[1])
	}
	dec := treewidth.FromOrdering(g, order)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treewidth.BuildFormula(a, dec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_EvaluateFormula(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g, order := gen.PartialKTree(rng, 30, 2, 0.1)
	a := structure.NewGraph(g.N())
	for _, e := range g.Edges() {
		structure.AddUndirectedEdge(a, e[0], e[1])
	}
	dec := treewidth.FromOrdering(g, order)
	f, err := treewidth.BuildFormula(a, dec)
	if err != nil {
		b.Fatal(err)
	}
	k3 := structure.Clique(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logic.Holds(f, k3); err != nil {
			b.Fatal(err)
		}
	}
}

// E9 — Theorem 6.2: DP over the decomposition vs MAC search, by n.

func BenchmarkE9(b *testing.B) {
	for _, n := range []int{40, 80, 160} {
		rng := rand.New(rand.NewSource(9))
		g, order := gen.PartialKTree(rng, n, 2, 0.1)
		inst := gen.CSPOnGraph(rng, g, 3, 0.45)
		dec := treewidth.FromOrdering(g, order)
		b.Run(fmt.Sprintf("DP_n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := treewidth.SolveDecomposed(context.Background(), inst, dec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("BT_n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				csp.Solve(inst, csp.Options{Algorithm: csp.BT})
			}
		})
		b.Run(fmt.Sprintf("MAC_n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				csp.Solve(inst, csp.Options{})
			}
		})
	}
}

// E10 — Yannakakis vs naive evaluation on an acyclic chain query.

func e10DB() *structure.Structure {
	rng := rand.New(rand.NewSource(10))
	voc := structure.MustVocabulary(structure.Symbol{Name: "R", Arity: 2})
	db := structure.MustNew(voc, 60)
	for i := 0; i < 150; i++ {
		db.MustAddTuple("R", rng.Intn(60), rng.Intn(60))
	}
	return db
}

func BenchmarkE10_Yannakakis(b *testing.B) {
	q := cq.MustParse(gen.ChainQuery(5))
	db := e10DB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hypergraph.Yannakakis(q, db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_NaiveJoin(b *testing.B) {
	q := cq.MustParse(gen.ChainQuery(5))
	db := e10DB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Evaluate(db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_GYO(b *testing.B) {
	q := cq.MustParse(gen.ChainQuery(12))
	h, _, err := hypergraph.FromQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.GYO()
	}
}

// E11 — certain answers: template construction (expression complexity) and
// answering (data complexity) separately.

func BenchmarkE11_TemplateConstruction(b *testing.B) {
	q := automata.MustParseRegex("(ab)*")
	views := []rpq.View{{Name: 'v', Def: "a"}, {Name: 'w', Def: "b"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpq.ConstraintTemplate(q, views); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_CertainAnswer(b *testing.B) {
	q := automata.MustParseRegex("(ab)*")
	views := []rpq.View{{Name: 'v', Def: "a"}, {Name: 'w', Def: "b"}}
	tpl, err := rpq.ConstraintTemplate(q, views)
	if err != nil {
		b.Fatal(err)
	}
	ext := rpq.Extension{
		'v': {{X: "x", Y: "y"}, {X: "z", Y: "w"}},
		'w': {{X: "y", Y: "z"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpq.CertainAnswer(tpl, ext, "x", "w"); err != nil {
			b.Fatal(err)
		}
	}
}

// E12 — reduction round trip and maximal rewriting construction.

func BenchmarkE12_SolveViaViews(b *testing.B) {
	a := structure.Cycle(4)
	k2 := structure.Clique(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpq.SolveViaViews(a, k2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12_MaximalRewriting(b *testing.B) {
	views := []rpq.View{{Name: 'v', Def: "ab"}, {Name: 'w', Def: "a"}, {Name: 'u', Def: "b"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpq.MaximalRewriting("(ab)*", views); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: the design choices DESIGN.md calls out, benchmarked ---

// Backjumping vs chronological backtracking on the same static order.
func BenchmarkAblation_BTvsCBJ(b *testing.B) {
	p := csp.NewInstance(12, 3)
	u := csp.TableOf(1, []int{1}, []int{2})
	p.MustAddConstraint([]int{0}, u)
	last := csp.TableOf(2, []int{0, 0})
	p.MustAddConstraint([]int{0, 11}, last)
	b.Run("BT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csp.Solve(p, csp.Options{Algorithm: csp.BT, VarOrder: csp.Lex})
		}
	})
	b.Run("CBJ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csp.SolveCBJ(p, csp.Options{VarOrder: csp.Lex})
		}
	})
}

// Freuder's tree algorithm (the join-tree engine over the constraint forest)
// vs MAC on tree instances.
func BenchmarkAblation_TreeSolver(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	g := graph.Path(200)
	inst := gen.CSPOnGraph(rng, g, 4, 0.3)
	b.Run("Freuder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hypergraph.SolveAcyclicCSP(context.Background(), inst, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MAC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csp.Solve(inst, csp.Options{})
		}
	})
}

// Exact counting by decomposition DP (vs exhaustive enumeration at a size
// where enumeration is still feasible).
func BenchmarkAblation_Counting(b *testing.B) {
	p := csp.MustFromStructures(structure.Path(16), structure.Clique(3))
	b.Run("DecompositionDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := treewidth.Count(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Enumeration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csp.CountSolutions(p, 0)
		}
	})
}

// The canonical 2-Datalog program vs the direct game algorithm.
func BenchmarkAblation_CanonicalProgram(b *testing.B) {
	a := structure.Cycle(6)
	k2 := structure.Clique(2)
	prog, err := datalog.CanonicalProgram(k2)
	if err != nil {
		b.Fatal(err)
	}
	edb := datalog.GraphEDB(a)
	b.Run("CanonicalDatalog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datalog.GoalTrue(prog, edb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DirectGame", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pebble.SpoilerWins(a, k2, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Query minimization cost on a chain with redundant atoms.
func BenchmarkAblation_QueryMinimization(b *testing.B) {
	q := cq.MustParse("Q(X,Y) :- E(X,Z), E(Z,Y), E(X,W), E(W2,Y), E(X,Z), E(U,V)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cq.Minimize(q); err != nil {
			b.Fatal(err)
		}
	}
}

// DFA minimization on rewriting automata.
func BenchmarkAblation_DFAMinimize(b *testing.B) {
	views := []rpq.View{{Name: 'v', Def: "ab"}, {Name: 'w', Def: "a"}, {Name: 'u', Def: "b"}}
	rw, err := rpq.MaximalRewriting("(ab)*", views)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw.Minimize()
	}
}

// The Feder–Vardi digraph encoding: construction cost and solving the
// reduced instance vs the direct one.
func BenchmarkAblation_DigraphReduction(b *testing.B) {
	a := structure.Cycle(5)
	k3 := structure.Clique(3)
	b.Run("Encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := digraph.EncodePair(a, k3); err != nil {
				b.Fatal(err)
			}
		}
	})
	encA, encB, err := digraph.EncodePair(a, k3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SolveReduced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csp.HomomorphismExists(encA.Graph, encB.Graph)
		}
	})
	b.Run("SolveDirect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csp.HomomorphismExists(a, k3)
		}
	})
}

// --- Engine: the portfolio race (README "Parallel solving") ---
//
// Four workload families compare the sequential deciders against the
// portfolio race. The E1-E12 baselines above stay sequential; these
// benchmarks are the concurrency story only.

func engineSolvers(p *csp.Instance) map[string]func() csp.Result {
	return map[string]func() csp.Result{
		"MAC": func() csp.Result { return csp.Solve(p, csp.Options{}) },
		"FC":  func() csp.Result { return csp.Solve(p, csp.Options{Algorithm: csp.FC, VarOrder: csp.Lex}) },
		"CBJ": func() csp.Result { return csp.SolveCBJ(p, csp.Options{}) },
		"Portfolio": func() csp.Result {
			return csp.Portfolio(context.Background(), p, csp.PortfolioOptions{}).Result
		},
	}
}

func benchEngine(b *testing.B, p *csp.Instance) {
	for _, name := range []string{"MAC", "FC", "CBJ", "Portfolio"} {
		run := engineSolvers(p)[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := run(); res.Aborted {
					b.Fatal("solver aborted without limits")
				}
			}
		})
	}
}

func BenchmarkEngineQueens8(b *testing.B) {
	benchEngine(b, gen.NQueens(8))
}

func BenchmarkEnginePhaseTransition(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	benchEngine(b, gen.ModelB(rng, 14, 4, 0.5, 0.45))
}

func BenchmarkEngineOddCycleColoring(b *testing.B) {
	benchEngine(b, gen.Coloring(graph.Cycle(21), 2))
}

// engineHardFamily is cspdbench's hard-search family, the instances the
// dispatcher's Hard route races the portfolio on: phase-transition members
// (20 variables, 10 values, density 0.3) at fixed seeds.
func engineHardFamily() []*csp.Instance {
	family := make([]*csp.Instance, 16)
	for i := range family {
		family[i] = gen.PhaseTransition(rand.New(rand.NewSource(int64(i+1))), 20, 10, 0.3)
	}
	return family
}

// BenchmarkEngineHardRace times one pass over the hard-search family
// through the default race (Portfolio) and through its MAC+MRV lane alone
// (MAC): the gap is what the race's other lanes cost on the family where
// MAC+MRV or Learn wins nearly every race.
func BenchmarkEngineHardRace(b *testing.B) {
	family := engineHardFamily()
	b.Run("MAC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range family {
				csp.Solve(p, csp.Options{Algorithm: csp.MAC, VarOrder: csp.MRV})
			}
		}
	})
	b.Run("Portfolio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range family {
				if res := csp.Portfolio(context.Background(), p, csp.PortfolioOptions{}); res.Aborted {
					b.Fatal("portfolio aborted without limits")
				}
			}
		}
	})
}

// BenchmarkEngineMixedFamily is the portfolio acceptance benchmark: a
// three-instance family on which every fixed strategy is beaten badly on at
// least one member, so the portfolio's per-instance adaptivity wins the
// family even on a single core.
//
//   - 16-queens: MAC ~3.5ms, but FC ~65ms and CBJ ~220ms.
//   - big-domain loose model B (n=150, d=50): CBJ ~2ms, but FC ~39ms and
//     MAC ~290ms (per-node propagation scans 2500-pair tables for nothing).
//   - loose model B (n=60, d=10, p=0.3, q=0.1): MAC 51ms, CBJ ~0.7ms, and
//     FC+Lex thrashes for >18s without finishing (heavy-tailed behavior past
//     the phase transition) — its sub-benchmark runs under a 500k-node budget
//     and still fails to decide the member, so its time is a lower bound.
//
// The portfolio races the three default lanes (MAC+MRV, CBJ, Learn) and
// decides the whole family more than an order of magnitude faster than the
// best fixed strategy. On the big-domain member CBJ wins in about a
// millisecond while MAC+MRV and Learn are still compiling their supports;
// that set-up polls and yields like the search, so the losers neither hold
// a processor nor run on after the winner. The race's CBJ lane is a probe
// of Vars×Dom nodes; the two members it wins take it 162 nodes (budget
// 7,500) and 141 (budget 600), while on 16-queens, where it would need
// ~220 ms, it stops after at most 256. The CBJ row here runs SolveCBJ
// complete.
func engineMixedFamily() []*csp.Instance {
	big := gen.ModelB(rand.New(rand.NewSource(1)), 150, 50, 0.12, 0.01)
	loose := gen.ModelB(rand.New(rand.NewSource(1)), 60, 10, 0.3, 0.1)
	return []*csp.Instance{gen.NQueens(16), big, loose}
}

func BenchmarkEngineMixedFamily(b *testing.B) {
	family := engineMixedFamily()
	fixed := map[string]func(p *csp.Instance) csp.Result{
		"MAC": func(p *csp.Instance) csp.Result { return csp.Solve(p, csp.Options{}) },
		"FC_500kNodes": func(p *csp.Instance) csp.Result {
			return csp.Solve(p, csp.Options{Algorithm: csp.FC, VarOrder: csp.Lex, NodeLimit: 500_000})
		},
		"CBJ": func(p *csp.Instance) csp.Result { return csp.SolveCBJ(p, csp.Options{}) },
	}
	for _, name := range []string{"MAC", "FC_500kNodes", "CBJ"} {
		run := fixed[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range family {
					run(p)
				}
			}
		})
	}
	b.Run("Portfolio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range family {
				res := csp.Portfolio(context.Background(), p, csp.PortfolioOptions{})
				if res.Aborted {
					b.Fatal("portfolio aborted without limits")
				}
			}
		}
	})
}
