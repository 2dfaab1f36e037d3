package csp

import (
	"context"
	"time"

	"csdb/internal/obs"
)

// This file implements a portfolio solver. The paper's recurring point
// (Proposition 2.1, Theorem 5.7, Section 6) is that the same instance can be
// decided by several interchangeable complete procedures — backtracking
// search with propagation, conflict-directed backjumping, and join
// evaluation — and no single one dominates across instance classes. A
// portfolio races several of them concurrently under one context and returns
// the first definitive verdict, cancelling the losers. The default race keeps
// only the procedures that win some family (DefaultStrategies).

// PortfolioStrategy is one competitor in a portfolio: a named complete
// decision procedure. Run must honor ctx (returning Aborted=true once it is
// cancelled) and must treat opts.NodeLimit as its own private budget.
type PortfolioStrategy struct {
	Name string
	Run  func(ctx context.Context, p *Instance, opts Options) Result
}

// DefaultStrategies returns the standard portfolio of three lanes: MAC+MRV
// search, conflict-directed backjumping, and the restart/nogood learning
// engine. Each wins a family the others lose: MAC+MRV and Learn between them
// decide every phase-transition instance fastest, and CBJ alone decides a
// loose big-domain instance in about a millisecond where MAC's per-node
// propagation scans large tables for nothing (BenchmarkEngineMixedFamily).
// CBJ is there for instances it decides nearly without backtracking, so its
// lane is a bounded probe: it searches at most Vars×Dom nodes (or
// opts.NodeLimit, if smaller) and then reports Aborted. The mixed family's
// big-domain member takes it 162 nodes against a budget of 7,500 and the
// loose member 141 against 600, while a phase-transition instance of the
// Hard route's family, which would take it tens of thousands, costs the
// race 200. The cbj strategy row runs SolveCBJ complete. FC+Lex and join
// evaluation were never the fastest lane and stay out; they remain rows of
// the dispatcher's strategy table. The dispatcher's Hard route inherits the
// race.
func DefaultStrategies() []PortfolioStrategy {
	return []PortfolioStrategy{
		{Name: "MAC+MRV", Run: func(ctx context.Context, p *Instance, opts Options) Result {
			opts.Algorithm, opts.VarOrder = MAC, MRV
			return SolveCtx(ctx, p, opts)
		}},
		{Name: "CBJ", Run: func(ctx context.Context, p *Instance, opts Options) Result {
			if probe := int64(p.Vars) * int64(p.Dom); opts.NodeLimit <= 0 || probe < opts.NodeLimit {
				opts.NodeLimit = probe
			}
			return SolveCBJCtx(ctx, p, opts)
		}},
		{Name: "Learn", Run: func(ctx context.Context, p *Instance, opts Options) Result {
			opts.Learn, opts.VarOrder = true, MRV
			return SolveCtx(ctx, p, opts)
		}},
	}
}

// PortfolioOptions configures a Portfolio call.
type PortfolioOptions struct {
	// Strategies to race; nil means DefaultStrategies().
	Strategies []PortfolioStrategy
	// Options is the base configuration handed to every strategy. Its
	// NodeLimit applies per strategy: each competitor counts its own nodes
	// against the limit, so one strategy hitting the limit does not abort
	// (or poison) the others.
	Options Options
	// Timeout, when positive, bounds the whole race with a deadline derived
	// from the caller's context.
	Timeout time.Duration
}

// StrategyReport is the per-strategy attribution in a PortfolioResult.
type StrategyReport struct {
	Name  string
	Stats Stats
	// Found and Aborted mirror the strategy's own Result. A losing strategy
	// typically shows Aborted=true because the winner cancelled it.
	Found   bool
	Aborted bool
}

// PortfolioResult is the outcome of a portfolio race: the winning verdict,
// which strategy produced it, the per-strategy reports, and the merged
// effort counters across all competitors.
type PortfolioResult struct {
	Result
	// Winner is the name of the strategy whose verdict was adopted; empty
	// when no strategy reached a verdict (all aborted or cancelled).
	Winner  string
	Reports []StrategyReport
	// Total sums the search effort across every strategy (nodes, backtracks
	// and prunings are additive; MaxDepth is the maximum). Its Duration is
	// the wall clock of the whole race.
	Total Stats
}

// Portfolio races the configured strategies on goroutines and returns the
// first definitive verdict — Found (with a solution) or a completed
// unsatisfiability proof — cancelling the remaining strategies. All
// strategies are waited for before returning, so Portfolio leaks no
// goroutines. When every strategy aborts (node limits, or ctx cancelled
// before any verdict), the result has Aborted=true.
//
// The race is fair on fewer processors than lanes (three default lanes on
// two cores), and its losers stop promptly, because every built-in lane
// polls ctx after a bounded stretch of work (cancelCheckInterval search
// nodes, propagation steps, support scans or set-up ticks; about a thousand
// rows or pairs inside the join kernel) and yields the processor at a poll
// once it has run for yieldQuantum (0.1 ms). The lanes therefore share
// processors in slices of about 0.1 ms, not the runtime's ~10 ms preemption
// turns, and a loser returns within one poll interval of the winner's
// cancellation, even while it is still compiling its supports. Where
// MAC+MRV or Learn wins, the CBJ probe (see DefaultStrategies) gives up
// after Vars×Dom nodes instead of taking a processor for the whole race.
// The race still costs more than its winner alone: 1.34–1.99× its fastest
// lane on the BENCH_search families (on SearchHard20x10d30x50 the bitset
// MAC lane takes 17.1 ms, the race 26.7 ms). Every lane compiles its own
// supports, and on the 2-core benchmark host two CPU-bound goroutines take
// 1.65–1.8× the time of one.
func Portfolio(ctx context.Context, p *Instance, popts PortfolioOptions) PortfolioResult {
	start := time.Now()
	strategies := popts.Strategies
	if len(strategies) == 0 {
		strategies = DefaultStrategies()
	}
	obsPortfolioRaces.Inc()
	ctx, raceSpan := obs.StartSpan(ctx, "csp.portfolio")
	raceSpan.SetInt("strategies", int64(len(strategies)))
	var raceCtx context.Context
	var cancel context.CancelFunc
	if popts.Timeout > 0 {
		raceCtx, cancel = context.WithTimeout(ctx, popts.Timeout)
	} else {
		raceCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	type verdict struct {
		idx int
		res Result
	}
	done := make(chan verdict, len(strategies))
	for i, st := range strategies {
		go func(i int, st PortfolioStrategy) {
			sp := obs.StartChild(raceSpan, "csp.strategy")
			sp.SetStr("name", st.Name)
			res := st.Run(obs.WithSpan(raceCtx, sp), p, popts.Options)
			sp.SetInt("nodes", res.Stats.Nodes)
			if res.Found {
				sp.SetInt("found", 1)
			}
			if res.Aborted {
				sp.SetInt("aborted", 1)
			}
			sp.End()
			done <- verdict{i, res}
		}(i, st)
	}

	out := PortfolioResult{Reports: make([]StrategyReport, len(strategies))}
	winner := -1
	for n := 0; n < len(strategies); n++ {
		v := <-done
		rep := StrategyReport{
			Name:    strategies[v.idx].Name,
			Stats:   v.res.Stats,
			Found:   v.res.Found,
			Aborted: v.res.Aborted,
		}
		if winner < 0 && !v.res.Aborted {
			winner = v.idx
			out.Result = v.res
			out.Winner = strategies[v.idx].Name
			cancel() // stop the losers
		}
		out.Reports[v.idx] = rep
		out.Total.merge(v.res.Stats)
	}
	if winner < 0 {
		out.Result = Result{Aborted: true, Stats: out.Total}
	}
	for i := range out.Reports {
		recordLaneOutcome(out.Reports[i].Name, i == winner)
	}
	out.Total.Duration = time.Since(start)
	out.Result.Stats.Duration = out.Total.Duration
	raceSpan.SetStr("winner", out.Winner)
	raceSpan.SetInt("total_nodes", out.Total.Nodes)
	raceSpan.End()
	return out
}
