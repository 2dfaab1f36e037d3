package csp

import (
	"context"
	"math/rand"
	"testing"

	"csdb/internal/obs"
)

// pigeonhole returns the unsatisfiable instance placing n pigeons into n-1
// holes (pairwise disequality). Its unsatisfiability proof is exponential
// for every solver in this package, which makes it the standard "hard
// instance" of the cancellation and portfolio tests.
func pigeonhole(n int) *Instance {
	p := NewInstance(n, n-1)
	neq := NewTable(2)
	for a := 0; a < n-1; a++ {
		for b := 0; b < n-1; b++ {
			if a != b {
				neq.Add([]int{a, b})
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.MustAddConstraint([]int{i, j}, neq)
		}
	}
	return p
}

// TestPortfolioAgreesWithSequential is the differential headline test: on
// 320 random instances spanning the density/tightness phase transition, the
// portfolio race and the work-splitting parallel search must reproduce the
// brute-force verdict exactly, and any solution they return must satisfy
// the instance.
func TestPortfolioAgreesWithSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	trials := 0
	for _, density := range []float64{0.3, 0.5, 0.7, 0.9} {
		for _, tightness := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
			for i := 0; i < 16; i++ {
				vars := 4 + rng.Intn(4)
				dom := 2 + rng.Intn(2)
				p := randomInstance(rng, vars, dom, density, tightness)
				want := len(bruteForce(p)) > 0
				trials++

				pres := Portfolio(context.Background(), p, PortfolioOptions{})
				if pres.Aborted {
					t.Fatalf("d=%v t=%v #%d: portfolio aborted without limits", density, tightness, i)
				}
				if pres.Found != want {
					t.Fatalf("d=%v t=%v #%d: portfolio found=%v, brute force says %v (winner %s)",
						density, tightness, i, pres.Found, want, pres.Winner)
				}
				if pres.Winner == "" {
					t.Fatalf("d=%v t=%v #%d: verdict without a winner", density, tightness, i)
				}
				if pres.Found && !p.Satisfies(pres.Solution) {
					t.Fatalf("d=%v t=%v #%d: portfolio solution %v violates the instance (winner %s)",
						density, tightness, i, pres.Solution, pres.Winner)
				}

				rres := SolveParallel(context.Background(), p, ParallelOptions{Workers: 3})
				if rres.Aborted {
					t.Fatalf("d=%v t=%v #%d: parallel solve aborted without limits", density, tightness, i)
				}
				if rres.Found != want {
					t.Fatalf("d=%v t=%v #%d: parallel found=%v, brute force says %v",
						density, tightness, i, rres.Found, want)
				}
				if rres.Found && !p.Satisfies(rres.Solution) {
					t.Fatalf("d=%v t=%v #%d: parallel solution %v violates the instance",
						density, tightness, i, rres.Solution)
				}
			}
		}
	}
	if trials < 300 {
		t.Fatalf("only %d differential trials, want >= 300", trials)
	}
}

func TestPortfolioUnsatVerdict(t *testing.T) {
	// C5 is not 2-colorable: the race must end with a definitive UNSAT, not
	// an abort, and name the strategy that proved it.
	p := coloringInstance([][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, 5, 2)
	res := Portfolio(context.Background(), p, PortfolioOptions{})
	if res.Found || res.Aborted {
		t.Fatalf("want definitive UNSAT, got %+v", res.Result)
	}
	if res.Winner == "" {
		t.Fatal("UNSAT verdict without a winner")
	}
	if len(res.Reports) != len(DefaultStrategies()) {
		t.Fatalf("got %d reports, want %d", len(res.Reports), len(DefaultStrategies()))
	}
}

// TestPortfolioNodeLimitPerStrategy pins the Options.NodeLimit semantics in
// a portfolio: the limit is a private budget of each strategy, not a global
// pool shared by the race. Each search strategy here needs fewer nodes than
// the limit on its own but the race as a whole spends more than the limit,
// so a global interpretation would abort — the race must not.
func TestPortfolioNodeLimitPerStrategy(t *testing.T) {
	p := pigeonhole(6)
	var maxNodes int64
	for _, res := range []Result{
		Solve(p, Options{Algorithm: MAC, VarOrder: MRV}),
		SolveCBJ(p, Options{}),
	} {
		if res.Found || res.Aborted {
			t.Fatalf("pigeonhole(6) should be a completed UNSAT proof, got %+v", res)
		}
		if res.Stats.Nodes > maxNodes {
			maxNodes = res.Stats.Nodes
		}
	}
	limit := maxNodes + 1
	res := Portfolio(context.Background(), p, PortfolioOptions{Options: Options{NodeLimit: limit}})
	if res.Aborted || res.Found {
		t.Fatalf("per-strategy limit %d: want completed UNSAT, got %+v (winner %q)",
			limit, res.Result, res.Winner)
	}
	if res.Result.Stats.Nodes > limit {
		t.Fatalf("winner reports %d nodes, above its own budget %d", res.Result.Stats.Nodes, limit)
	}
}

// TestPortfolioAbortedStrategyDoesNotPoisonWinner is the regression test for
// the NodeLimit semantics gap: a strategy that aborts on its own node limit
// must not leak its abort (or its stats) into the adopted verdict.
func TestPortfolioAbortedStrategyDoesNotPoisonWinner(t *testing.T) {
	p := pigeonhole(6)
	solo := Solve(p, Options{Algorithm: MAC, VarOrder: MRV})
	strategies := []PortfolioStrategy{
		{Name: "starved-BT", Run: func(ctx context.Context, p *Instance, opts Options) Result {
			opts.Algorithm, opts.VarOrder, opts.NodeLimit = BT, Lex, 3
			return SolveCtx(ctx, p, opts)
		}},
		{Name: "MAC", Run: func(ctx context.Context, p *Instance, opts Options) Result {
			opts.Algorithm, opts.VarOrder = MAC, MRV
			return SolveCtx(ctx, p, opts)
		}},
	}
	res := Portfolio(context.Background(), p, PortfolioOptions{Strategies: strategies})
	if res.Winner != "MAC" {
		t.Fatalf("winner = %q, want MAC (starved-BT cannot reach a verdict)", res.Winner)
	}
	if res.Found || res.Aborted {
		t.Fatalf("want completed UNSAT from the winner, got %+v", res.Result)
	}
	if res.Result.Stats.Nodes != solo.Stats.Nodes {
		t.Fatalf("winner's stats poisoned: portfolio reports %d nodes, solo MAC %d",
			res.Result.Stats.Nodes, solo.Stats.Nodes)
	}
	var starved *StrategyReport
	for i := range res.Reports {
		if res.Reports[i].Name == "starved-BT" {
			starved = &res.Reports[i]
		}
	}
	if starved == nil || !starved.Aborted {
		t.Fatalf("starved strategy should report its own abort: %+v", res.Reports)
	}
	if res.Total.Nodes != res.Reports[0].Stats.Nodes+res.Reports[1].Stats.Nodes {
		t.Fatalf("merged total %d != sum of per-strategy nodes", res.Total.Nodes)
	}
}

func TestSolveParallelEdgeCases(t *testing.T) {
	// Zero variables: trivially satisfiable with the empty assignment.
	empty := NewInstance(0, 3)
	if res := SolveParallel(context.Background(), empty, ParallelOptions{}); !res.Found || len(res.Solution) != 0 {
		t.Fatalf("empty instance: %+v", res)
	}
	// Empty root domain: trivially UNSAT, not aborted.
	dead := NewInstance(2, 3)
	dead.Domains = [][]int{{}, {0, 1}}
	if res := SolveParallel(context.Background(), dead, ParallelOptions{}); res.Found || res.Aborted {
		t.Fatalf("empty-domain instance: %+v", res)
	}
	// Per-subtree node limit: a limit too small for any subtree proof must
	// surface as Aborted, never as a false UNSAT.
	hard := pigeonhole(8)
	res := SolveParallel(context.Background(), hard, ParallelOptions{Options: Options{NodeLimit: 2}})
	if res.Found || !res.Aborted {
		t.Fatalf("starved parallel solve must abort, got %+v", res.Result)
	}
	// Stats attribution and subtree accounting.
	queens := nqueensInstance(6)
	pres := SolveParallel(context.Background(), queens, ParallelOptions{Workers: 2})
	if !pres.Found || !queens.Satisfies(pres.Solution) {
		t.Fatalf("6-queens: %+v", pres.Result)
	}
	if pres.Subtrees != 6 || pres.Workers != 2 {
		t.Fatalf("subtrees=%d workers=%d, want 6/2", pres.Subtrees, pres.Workers)
	}
	if pres.Stats.Strategy != "parallel(MAC+MRV)" {
		t.Fatalf("strategy attribution = %q", pres.Stats.Strategy)
	}
}

// nqueensInstance mirrors gen.NQueens without importing gen (which would
// create an import cycle with this package).
func nqueensInstance(n int) *Instance {
	p := NewInstance(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			tab := NewTable(2)
			diff := j - i
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a != b && a-b != diff && b-a != diff {
						tab.Add([]int{a, b})
					}
				}
			}
			p.MustAddConstraint([]int{i, j}, tab)
		}
	}
	return p
}

func TestStatsInstrumentation(t *testing.T) {
	p := nqueensInstance(6)
	res := Solve(p, Options{Algorithm: MAC, VarOrder: MRV})
	if !res.Found {
		t.Fatal("6-queens is satisfiable")
	}
	if res.Stats.Strategy != "MAC+MRV" {
		t.Fatalf("strategy attribution = %q, want MAC+MRV", res.Stats.Strategy)
	}
	if res.Stats.MaxDepth != 6 {
		t.Fatalf("max depth = %d, want 6 (a full assignment was reached)", res.Stats.MaxDepth)
	}
	if res.Stats.Duration <= 0 {
		t.Fatalf("duration = %v, want > 0", res.Stats.Duration)
	}
	cbj := SolveCBJ(p, Options{})
	if cbj.Stats.Strategy != "CBJ" || cbj.Stats.MaxDepth != 6 {
		t.Fatalf("CBJ instrumentation: %+v", cbj.Stats)
	}
	join := JoinSolve(p)
	if join.Stats.Strategy != "Join" || !join.Found {
		t.Fatalf("join instrumentation: %+v", join.Stats)
	}
}

// TestPortfolioLaneOutcomes pins the labeled per-lane win/loss vector: one
// race increments exactly one win series and len(lanes)-1 loss series.
func TestPortfolioLaneOutcomes(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })

	lanes := []string{"mac_mrv", "cbj", "learn"}
	before := map[string][2]int64{}
	for _, l := range lanes {
		before[l] = [2]int64{obsPortfolioLane.Load(l, "win"), obsPortfolioLane.Load(l, "loss")}
	}

	res := Portfolio(context.Background(), nqueensInstance(6), PortfolioOptions{})
	if res.Winner == "" {
		t.Fatal("race produced no winner")
	}
	var wins, losses int64
	for _, l := range lanes {
		wins += obsPortfolioLane.Load(l, "win") - before[l][0]
		losses += obsPortfolioLane.Load(l, "loss") - before[l][1]
	}
	if wins != 1 || losses != int64(len(lanes)-1) {
		t.Fatalf("lane outcome deltas: wins=%d losses=%d, want 1 and %d", wins, losses, len(lanes)-1)
	}
	if got := obsPortfolioLane.Load(laneLabel(res.Winner), "win") - before[laneLabel(res.Winner)][0]; got != 1 {
		t.Fatalf("winner lane %s win delta = %d, want 1", res.Winner, got)
	}
}

// TestLaneLabelClosed pins the lane label mapping over DefaultStrategies and
// the other-collapse for unknown names.
func TestLaneLabelClosed(t *testing.T) {
	seen := map[string]bool{}
	for _, st := range DefaultStrategies() {
		l := laneLabel(st.Name)
		if l == "other" {
			t.Fatalf("default strategy %q has no dedicated lane label", st.Name)
		}
		if seen[l] {
			t.Fatalf("lane label %q not unique", l)
		}
		seen[l] = true
	}
	if laneLabel("SomeCustomLane") != "other" {
		t.Fatal("unknown lane must collapse onto other")
	}
}
