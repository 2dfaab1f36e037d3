package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"csdb/internal/automata"
	"csdb/internal/consistency"
	"csdb/internal/cq"
	"csdb/internal/csp"
	"csdb/internal/gen"
	"csdb/internal/hypergraph"
	"csdb/internal/logic"
	"csdb/internal/relation"
	"csdb/internal/rpq"
	"csdb/internal/structure"
	"csdb/internal/treewidth"
)

// E7 — Theorems 5.6/5.7: strong k-consistency can be established exactly
// when the Duplicator wins the k-pebble game, and the produced instance has
// the four properties of Definition 5.4; constraint propagation (GAC) cuts
// search effort.
func E7(seed int64) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "establishing strong k-consistency",
		Claim:  "Thm 5.6: establishable iff W^k nonempty; the construction is strongly k-consistent, coherent, and solution-preserving",
		Header: []string{"workload", "instances", "establishable", "properties hold", "note"},
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))

	const trials = 25
	establishable, propertiesHold := 0, 0
	for i := 0; i < trials; i++ {
		a := gen.RandomSymmetricGraph(rng, 3+rng.Intn(3), 0.5)
		b := structure.Clique(2 + rng.Intn(2))
		est, ok, err := consistency.EstablishStrongK(a, b, 2)
		if err != nil {
			panic(err)
		}
		if !ok {
			continue
		}
		establishable++
		sc, err := consistency.IsStronglyKConsistent(est.APrime, est.BPrime, 2)
		if err != nil {
			panic(err)
		}
		coh, err := consistency.IsCoherent(est.APrime, est.BPrime)
		if err != nil {
			panic(err)
		}
		samePre := csp.HomomorphismExists(a, b) == csp.HomomorphismExists(est.APrime, est.BPrime)
		if sc && coh && samePre {
			propertiesHold++
		}
	}
	t.Rows = append(t.Rows, []string{
		"random graphs vs cliques, k=2", itoa(trials), itoa(establishable),
		fmt.Sprintf("%d/%d", propertiesHold, establishable),
		"Def 5.4 (2)+(4) + coherence checked",
	})

	// Propagation effect: BT vs BT+GAC preprocessing vs MAC on critical
	// model-B instances, measured in search nodes.
	const ptrials = 15
	var btNodes, cbjNodes, gacNodes, macNodes int64
	for i := 0; i < ptrials; i++ {
		inst := gen.ModelB(rng, 14, 4, 0.5, 0.38)
		btNodes += csp.Solve(inst, csp.Options{Algorithm: csp.BT}).Stats.Nodes
		cbjNodes += csp.SolveCBJ(inst, csp.Options{}).Stats.Nodes
		gacNodes += csp.Solve(inst, csp.Options{Algorithm: csp.BT, RootConsistency: true}).Stats.Nodes
		macNodes += csp.Solve(inst, csp.Options{Algorithm: csp.MAC}).Stats.Nodes
	}
	t.Rows = append(t.Rows, []string{
		"model-B n=14 d=4 (near threshold)", itoa(ptrials), "-", "-",
		fmt.Sprintf("search nodes: BT=%d, CBJ=%d, BT+GAC=%d, MAC=%d", btNodes, cbjNodes, gacNodes, macNodes),
	})
	t.Notes = append(t.Notes,
		"Every establishable instance satisfies the Theorem 5.6 properties; maintaining consistency during search (MAC) dominates both plain backtracking and one-shot propagation, the operational content of Section 5.")
	t.Elapsed = time.Since(start)
	return t
}

// E8 — Proposition 6.1: from a width-k tree decomposition of A, the
// canonical query φ_A is expressible with k+1 variables; the formula
// evaluates correctly against the CSP solver.
func E8(seed int64) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "k+1-variable formulas from width-k decompositions",
		Claim:  "Prop 6.1: tw(A)=k iff φ_A is in ∃FO^{k+1}",
		Header: []string{"k", "structures", "vars ≤ k+1", "agree with solver", "formula size (max)"},
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	targets := []*structure.Structure{structure.Clique(2), structure.Clique(3)}
	for _, k := range []int{1, 2, 3} {
		const trials = 12
		boundOK, agreeAll := 0, 0
		maxSize := 0
		for i := 0; i < trials; i++ {
			g, order := gen.PartialKTree(rng, 6+rng.Intn(6), k, 0.15)
			a := structure.NewGraph(g.N())
			for _, e := range g.Edges() {
				structure.AddUndirectedEdge(a, e[0], e[1])
			}
			dec := treewidth.FromOrdering(g, order)
			f, err := treewidth.BuildFormula(a, dec)
			if err != nil {
				panic(err)
			}
			if logic.NumVariables(f) <= k+1 {
				boundOK++
			}
			if s := logic.Size(f); s > maxSize {
				maxSize = s
			}
			agree := true
			for _, b := range targets {
				truth, err := logic.Holds(f, b)
				if err != nil {
					panic(err)
				}
				if truth != csp.HomomorphismExists(a, b) {
					agree = false
				}
			}
			if agree {
				agreeAll++
			}
		}
		t.Rows = append(t.Rows, []string{
			itoa(k), itoa(trials),
			fmt.Sprintf("%d/%d", boundOK, trials),
			fmt.Sprintf("%d/%d", agreeAll, trials),
			itoa(maxSize),
		})
	}
	t.Notes = append(t.Notes,
		"Every generated width-k structure yields a formula within the k+1 variable bound whose truth value matches homomorphism existence.")
	t.Elapsed = time.Since(start)
	return t
}

// E9 — Theorem 6.2: CSP over structures of bounded treewidth is solvable in
// polynomial time. DP over the decomposition scales near-linearly in n at
// fixed k; generic search is the baseline.
func E9(seed int64) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "bounded-treewidth CSP: decomposition DP vs search",
		Claim:  "Thm 6.2: CSP(A(k), F) is in P; DP cost ~ n · d^{k+1}",
		Header: []string{"k", "n", "DP ms", "DP nodes", "MAC ms", "MAC nodes", "agree"},
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	const d = 3
	for _, k := range []int{2, 3} {
		for _, n := range []int{20, 40, 80, 160} {
			// Average over a few instances at moderate tightness so the
			// workload mixes satisfiable and unsatisfiable cases instead of
			// being refuted by propagation alone.
			const trials = 5
			var dpTime, btTime, macTime time.Duration
			var dpNodes, btNodes int64
			agree := true
			for i := 0; i < trials; i++ {
				g, order := gen.PartialKTree(rng, n, k, 0.1)
				inst := gen.CSPOnGraph(rng, g, d, 0.30)
				dec := treewidth.FromOrdering(g, order)
				var dpRes, btRes, macRes csp.Result
				dpTime += timed(func() {
					var err error
					dpRes, err = treewidth.SolveDecomposed(context.Background(), inst, dec)
					if err != nil {
						panic(err)
					}
				})
				btTime += timed(func() {
					btRes = csp.Solve(inst, csp.Options{Algorithm: csp.BT, NodeLimit: 2_000_000})
				})
				macTime += timed(func() { macRes = csp.Solve(inst, csp.Options{}) })
				dpNodes += dpRes.Stats.Nodes
				btNodes += btRes.Stats.Nodes
				if dpRes.Found != macRes.Found || (dpRes.Found != btRes.Found && !btRes.Aborted) {
					agree = false
				}
			}
			t.Rows = append(t.Rows, []string{
				itoa(k), itoa(n), ms(dpTime), i64toa(dpNodes),
				ms(btTime), i64toa(btNodes), ms(macTime), btoa(agree),
			})
		}
	}
	t.Header = []string{"k", "n", "DP ms", "DP nodes", "BT ms", "BT nodes", "MAC ms", "agree"}
	t.Notes = append(t.Notes,
		"DP cost grows linearly in n at fixed k (the d^{k+1} factor is constant per bag), realizing the Theorem 6.2 bound, and is immune to the thrashing that hits chronological backtracking; MAC's propagation also handles these binary instances well, which is why Section 5's consistency machinery matters in practice.")
	t.Elapsed = time.Since(start)
	return t
}

// E10 — Section 6 discussion: acyclic joins (GYO, Yannakakis) and the
// comparison of width notions (treewidth vs generalized hypertree width).
func E10(seed int64) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "acyclic joins and width notions",
		Claim:  "Section 6: acyclic queries evaluate in polynomial time via semijoins; hypertree width refines treewidth",
		Header: []string{"query", "db tuples", "yannakakis ms", "naive ms", "equal results", "output size"},
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))

	voc := structure.MustVocabulary(structure.Symbol{Name: "R", Arity: 2})
	makeDB := func(n int, edges int) *structure.Structure {
		db := structure.MustNew(voc, n)
		for i := 0; i < edges; i++ {
			db.MustAddTuple("R", rng.Intn(n), rng.Intn(n))
		}
		return db
	}
	// deadEndDB builds a layered database where every path fans out widely
	// but almost none survive to the last layer — the classical case where
	// the semijoin full reducer avoids the naive join's intermediate
	// blowup.
	deadEndDB := func(levels, width, fanout int) *structure.Structure {
		n := (levels + 1) * width
		db := structure.MustNew(voc, n)
		id := func(level, i int) int { return level*width + i }
		for l := 0; l < levels; l++ {
			for i := 0; i < width; i++ {
				if l == levels-1 {
					if i == 0 {
						db.MustAddTuple("R", id(l, 0), id(l+1, 0))
					}
					continue // all other last-layer edges are dead ends
				}
				for f := 0; f < fanout; f++ {
					db.MustAddTuple("R", id(l, i), id(l+1, rng.Intn(width)))
				}
			}
		}
		return db
	}
	type e10cfg struct {
		name  string
		query string
		db    *structure.Structure
	}
	for _, cfg := range []e10cfg{
		{"chain-3", gen.ChainQuery(3), makeDB(60, 150)},
		{"chain-5", gen.ChainQuery(5), makeDB(60, 150)},
		{"star-5", gen.StarQuery(5), makeDB(60, 150)},
		{"chain-4 dead-ends", gen.ChainQuery(4), deadEndDB(4, 40, 6)},
		{"chain-5 dead-ends", gen.ChainQuery(5), deadEndDB(5, 40, 5)},
	} {
		q := cq.MustParse(cfg.query)
		db := cfg.db
		var yr, nr *relation.Relation
		yTime := timed(func() {
			var err error
			yr, err = hypergraph.Yannakakis(q, db)
			if err != nil {
				panic(err)
			}
		})
		nTime := timed(func() {
			var err error
			nr, err = q.Evaluate(db)
			if err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			cfg.name, itoa(db.NumTuples()), ms(yTime), ms(nTime), btoa(yr.Equal(nr)), itoa(yr.Len()),
		})
	}

	// Width notions on the canonical examples.
	tri, _, err := hypergraph.FromQuery(cq.MustParse(gen.CycleQuery(3)))
	if err != nil {
		panic(err)
	}
	chain, _, err := hypergraph.FromQuery(cq.MustParse(gen.ChainQuery(4)))
	if err != nil {
		panic(err)
	}
	widthRow := func(name string, h *hypergraph.Hypergraph) {
		tw := treewidth.BestHeuristic(hypergraph.PrimalGraph(h)).Width()
		ghw, err := h.GHWUpperBound()
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			name + " [widths]", itoa(len(h.Edges)),
			fmt.Sprintf("tw=%d", tw), fmt.Sprintf("ghw≤%d", ghw.Width()),
			btoa(h.IsAcyclic()), "-",
		})
	}
	widthRow("triangle query", tri)
	widthRow("chain query", chain)

	t.Notes = append(t.Notes,
		"Yannakakis matches the naive join's results on every acyclic query; acyclic hypergraphs have generalized hypertree width 1 while the triangle needs 2 (and treewidth 2), illustrating the width hierarchy the paper surveys.")
	t.Elapsed = time.Since(start)
	return t
}

// E11 — Theorems 7.1/7.5: certain answers via the constraint template. The
// construction is exponential in the query (PSPACE expression complexity)
// but the experiment measures the data-complexity side: growing view
// extensions with a fixed query.
func E11(seed int64) *Table {
	t := &Table{
		ID:     "E11",
		Title:  "certain answers via the constraint template",
		Claim:  "Thm 7.5: (c,d) ∉ cert(Q,V) iff the extension structure maps into the constraint template",
		Header: []string{"query", "views", "ext pairs", "certain", "template ms", "answer ms"},
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	views := []rpq.View{{Name: 'v', Def: "a"}, {Name: 'w', Def: "b"}}
	for _, cfg := range []struct {
		query string
		pairs int
	}{
		{"ab", 8}, {"ab", 16}, {"ab", 32},
		{"(ab)*", 8}, {"(ab)*", 16},
		{"a*b", 16},
	} {
		q := automata.MustParseRegex(cfg.query)
		var tpl *rpq.Template
		tplTime := timed(func() {
			var err error
			tpl, err = rpq.ConstraintTemplate(q, views)
			if err != nil {
				panic(err)
			}
		})
		// Random chain-ish extensions over a small object pool.
		ext := rpq.Extension{}
		for i := 0; i < cfg.pairs; i++ {
			x := fmt.Sprintf("o%d", rng.Intn(cfg.pairs))
			y := fmt.Sprintf("o%d", rng.Intn(cfg.pairs))
			name := views[rng.Intn(len(views))].Name
			ext[name] = append(ext[name], rpq.Pair{X: x, Y: y})
		}
		certain := 0
		ansTime := timed(func() {
			answers, err := rpq.CertainAnswers(tpl, ext)
			if err != nil {
				panic(err)
			}
			certain = len(answers)
		})
		t.Rows = append(t.Rows, []string{
			cfg.query, "v=a, w=b", itoa(cfg.pairs), itoa(certain), ms(tplTime), ms(ansTime),
		})
	}
	t.Notes = append(t.Notes,
		"The template is built once per (query, views) pair — the expression-complexity cost — after which answering scales polynomially with the extension size (data complexity), as Theorem 7.1 prescribes.")
	t.Elapsed = time.Since(start)
	return t
}

// E12 — Theorem 7.3 and PODS'99 rewritings: CSP reduces to view-based
// answering (round-trip against the direct solver), and the maximal
// rewriting matches the expansion characterization on exhaustive short
// words.
func E12(seed int64) *Table {
	t := &Table{
		ID:     "E12",
		Title:  "CSP → views reduction and maximal rewritings",
		Claim:  "Thm 7.3: CSP(A,B) reduces to view-based answering; PODS'99: the maximal rewriting accepts exactly the always-contained view words",
		Header: []string{"experiment", "cases", "agree", "detail"},
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))

	// Round-trip: random digraphs vs 2-node templates.
	const trials = 8
	agree := 0
	for i := 0; i < trials; i++ {
		a := gen.RandomDigraph(rng, 2+rng.Intn(3), 0.5)
		b := gen.RandomDigraph(rng, 2, 0.6)
		direct := csp.HomomorphismExists(a, b)
		via, err := rpq.SolveViaViews(a, b)
		if err != nil {
			panic(err)
		}
		if direct == via {
			agree++
		}
	}
	t.Rows = append(t.Rows, []string{
		"Thm 7.3 ∘ Thm 7.5 round trip", itoa(trials),
		fmt.Sprintf("%d/%d", agree, trials),
		"cert(c,d) false iff A→B",
	})

	// Rewriting characterization, exhaustive on short view words.
	configs := []struct {
		query string
		views []rpq.View
	}{
		{"ab", []rpq.View{{Name: 'v', Def: "a"}, {Name: 'w', Def: "b"}}},
		{"a*", []rpq.View{{Name: 'v', Def: "a"}, {Name: 'w', Def: "aa"}}},
		{"(ab)*", []rpq.View{{Name: 'v', Def: "ab"}, {Name: 'w', Def: "a"}, {Name: 'u', Def: "b"}}},
	}
	for _, cfg := range configs {
		rw, err := rpq.MaximalRewriting(cfg.query, cfg.views)
		if err != nil {
			panic(err)
		}
		var alpha []byte
		for _, v := range cfg.views {
			alpha = append(alpha, v.Name)
		}
		words := automata.WordsUpTo(alpha, 4)
		ok := 0
		accepted := 0
		for _, w := range words {
			want, err := rpq.ExpansionsContained(w, cfg.views, cfg.query)
			if err != nil {
				panic(err)
			}
			if rw.Accepts(w) == want {
				ok++
			}
			if rw.Accepts(w) {
				accepted++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("rewriting of %q", cfg.query), itoa(len(words)),
			fmt.Sprintf("%d/%d", ok, len(words)),
			fmt.Sprintf("%d view words accepted", accepted),
		})
	}
	t.Notes = append(t.Notes,
		"The reduction agrees with the direct CSP solver on every instance, and each rewriting accepts exactly the view words all of whose expansions lie in the query language.")
	t.Elapsed = time.Since(start)
	return t
}
