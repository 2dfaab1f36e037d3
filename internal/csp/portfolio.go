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
	// joinAfter, when positive, holds the lane back until the race has been
	// undecided for that long, or until every lane started before it has
	// ended without a verdict; a race decided or cancelled first never
	// starts it. Only DefaultStrategies sets it, so a caller's own strategy
	// list starts every lane at once.
	joinAfter time.Duration
}

// learnJoinAfter is how long the default race runs undecided before its
// Learn lane joins. The Hard route's races are short: the MAC+MRV lane
// decides its phase-transition family in about 22 nodes, and in-process 8
// of 1,500 of those races ran past 1 ms (p50 0.28 ms, p99 0.85 ms), while
// the instances Learn wins (quasigroup completion, Model B at n=35) take
// it about 20 ms or more.
const learnJoinAfter = 10 * yieldQuantum

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
// race 200. The cbj strategy row runs SolveCBJ complete.
//
// The race is staged. MAC+MRV and the CBJ probe start at once; Learn, the
// lane for heavy-tailed runs, joins only a race still undecided after
// learnJoinAfter (1 ms), or at once when both have ended without a verdict
// (a node limit). On a 2-core host a third CPU-bound lane slows the two
// that decide nearly every Hard-route race: with Learn staged, cspdbench's
// hard-search p90 fell from 1.48 to 1.20 ms and its throughput rose from
// 937 to 1,107 requests/s (medians of ten interleaved pairs), while the
// instances Learn wins lose about the delay. FC+Lex and join evaluation
// were never the fastest lane and stay out; they remain rows of the
// dispatcher's strategy table. The dispatcher's Hard route inherits the
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
		}, joinAfter: learnJoinAfter},
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
// unsatisfiability proof — cancelling the remaining strategies. A lane held
// back by its join delay (DefaultStrategies' Learn) starts once the race has
// been undecided that long, or at once when every lane already started has
// ended without a verdict; one the race never needed is reported Aborted
// with zero Stats and opens no span. Every started lane is waited for
// before returning, so Portfolio leaks no goroutines. When every strategy
// aborts (node limits, or ctx cancelled before any verdict), the result has
// Aborted=true.
//
// The race is fair on fewer processors than lanes, and its losers stop
// promptly, because every built-in lane polls ctx after a bounded stretch
// of work (cancelCheckInterval search nodes, propagation steps, support
// scans or set-up ticks; about a thousand rows or pairs inside the join
// kernel) and yields the processor at a poll once it has run for
// yieldQuantum (0.1 ms). The lanes therefore share processors in slices of
// about 0.1 ms, not the runtime's ~10 ms preemption turns, and a loser
// returns within one poll interval of the winner's cancellation, even while
// it is still compiling its supports. What a race costs beyond its winner
// is the processor time of the lanes running beside it, not their
// duplicated set-up: a prototype that compiled the supports once and shared
// them between the lanes made the Hard route's /solve handler slower
// (758–765 µs against 733 µs). So the default race keeps its third lane out
// of the short races (see DefaultStrategies), and the CBJ probe gives up
// after Vars×Dom nodes where MAC+MRV or Learn wins.
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
	started := make([]bool, len(strategies))
	running, held := 0, 0
	launch := func(i int) {
		started[i] = true
		running++
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
		}(i, strategies[i])
	}
	for i, st := range strategies {
		if st.joinAfter > 0 {
			held++
		} else {
			launch(i)
		}
	}
	// release starts every held lane whose delay has run out, or every held
	// lane when now is set, and returns how long until the next one is due.
	release := func(now bool) time.Duration {
		elapsed, next := time.Since(start), time.Duration(0)
		for i, st := range strategies {
			if started[i] || st.joinAfter <= 0 {
				continue
			}
			if wait := st.joinAfter - elapsed; now || wait <= 0 {
				launch(i)
				held--
			} else if next == 0 || wait < next {
				next = wait
			}
		}
		return next
	}
	var timer *time.Timer
	var wake <-chan time.Time

	out := PortfolioResult{Reports: make([]StrategyReport, len(strategies))}
	winner := -1
	for {
		wake = nil
		if held > 0 && winner < 0 && raceCtx.Err() == nil {
			if next := release(running == 0); next > 0 {
				if timer == nil {
					timer = time.NewTimer(next)
				} else {
					timer.Reset(next)
				}
				wake = timer.C
			}
		}
		if running == 0 {
			break
		}
		select {
		case <-wake:
			continue
		case v := <-done:
			running--
			if winner < 0 && !v.res.Aborted {
				winner = v.idx
				out.Result = v.res
				out.Winner = strategies[v.idx].Name
				cancel() // stop the losers
			}
			out.Reports[v.idx] = StrategyReport{
				Name:    strategies[v.idx].Name,
				Stats:   v.res.Stats,
				Found:   v.res.Found,
				Aborted: v.res.Aborted,
			}
			out.Total.merge(v.res.Stats)
		}
	}
	if timer != nil {
		timer.Stop()
	}
	if winner < 0 {
		out.Result = Result{Aborted: true, Stats: out.Total}
	}
	for i := range out.Reports {
		if !started[i] {
			out.Reports[i] = StrategyReport{Name: strategies[i].Name, Aborted: true}
		}
		recordLaneOutcome(out.Reports[i].Name, started[i], i == winner)
	}
	out.Total.Duration = time.Since(start)
	out.Result.Stats.Duration = out.Total.Duration
	raceSpan.SetStr("winner", out.Winner)
	raceSpan.SetInt("total_nodes", out.Total.Nodes)
	raceSpan.End()
	return out
}
