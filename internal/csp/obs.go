package csp

import "csdb/internal/obs"

// Shared observability handles for the solver engine. All recording happens
// at call boundaries (one flush per solve / race / split), never per search
// node, so the disabled-mode overhead is a few atomic loads per solve call
// (guarded by the obs-overhead benchmark at the repo root).
//
// Metric catalog (see README "Observability"):
//
//	csp.solve.calls        solves finished (any algorithm, incl. CBJ)
//	csp.search.nodes       assignments tried, summed across solves
//	csp.search.backtracks  dead ends
//	csp.search.prunings    domain values removed by propagation
//	csp.search.depth       histogram of per-solve maximum search depth
//	csp.solve.ns           histogram of per-solve wall-clock nanoseconds
//	csp.search.restarts    Luby restarts taken by the learning engine
//	csp.search.nogoods     nogoods recorded from conflicts
//	csp.search.nogood_hits nogood propagation events (prunes + conflicts)
//	csp.joinsolve.calls    Proposition 2.1 join-evaluation decisions
//	csp.portfolio.races    portfolio races run
//	csp.portfolio.lane     labeled vector {lane, outcome}: per-lane win/loss
//	                       tallies across races (outcome win|loss)
//	csp.parallel.runs      SolveParallel calls
//	csp.parallel.subtrees  root-domain subtrees searched
var (
	obsSolveCalls       = obs.NewCounter("csp.solve.calls")
	obsSearchNodes      = obs.NewCounter("csp.search.nodes")
	obsSearchBacktracks = obs.NewCounter("csp.search.backtracks")
	obsSearchPrunings   = obs.NewCounter("csp.search.prunings")
	obsSearchDepth      = obs.NewHistogram("csp.search.depth")
	obsSolveNs          = obs.NewHistogram("csp.solve.ns")
	obsSearchRestarts   = obs.NewCounter("csp.search.restarts")
	obsSearchNogoods    = obs.NewCounter("csp.search.nogoods")
	obsSearchNogoodHits = obs.NewCounter("csp.search.nogood_hits")
	obsJoinSolveCalls   = obs.NewCounter("csp.joinsolve.calls")
	obsPortfolioRaces   = obs.NewCounter("csp.portfolio.races")
	obsParallelRuns     = obs.NewCounter("csp.parallel.runs")
	obsParallelSubtrees = obs.NewCounter("csp.parallel.subtrees")
)

// obsPortfolioLane is the labeled per-lane outcome vector: one increment per
// (lane, outcome) per race, flushed after the race settles.
var obsPortfolioLane = obs.NewCounterVec("csp.portfolio.lane", "lane", "outcome")

// laneLabel maps a portfolio strategy name onto its closed metric label set.
// The switch enumerates DefaultStrategies' three names; custom strategies
// collapse onto "other" so user-supplied names can never mint new series.
func laneLabel(name string) string {
	switch name {
	case "MAC+MRV":
		return "mac_mrv"
	case "CBJ":
		return "cbj"
	case "Learn":
		return "learn"
	}
	return "other"
}

// recordLaneOutcome flushes one lane's race outcome. It is its own function
// (a call boundary) because the caller tallies a whole race's lanes in one
// short bounded loop after the race settles.
func recordLaneOutcome(name string, won bool) {
	if !obs.Enabled() {
		return
	}
	outcome := "loss"
	if won {
		outcome = "win"
	}
	obsPortfolioLane.Inc(laneLabel(name), outcome)
}

// flushSolveObs flushes one finished solve into the shared registry and
// closes the solve span. It is the single funnel for the seed searcher
// family (BT/FC via run), CBJ (via SolveCBJCtx), and the bitset/learning
// engine: per-subtree and per-strategy effort counters of the concurrent
// engines therefore arrive in the registry through the same counters their
// merged Stats are built from, which is what TestParallelStatsMatchRegistry
// locks in.
func flushSolveObs(span *obs.Span, res Result) {
	if obs.Enabled() {
		obsSolveCalls.Inc()
		obsSearchNodes.Add(res.Stats.Nodes)
		obsSearchBacktracks.Add(res.Stats.Backtracks)
		obsSearchPrunings.Add(res.Stats.Prunings)
		obsSearchDepth.Observe(int64(res.Stats.MaxDepth))
		obsSolveNs.Observe(res.Stats.Duration.Nanoseconds())
		obsSearchRestarts.Add(res.Stats.Restarts)
		obsSearchNogoods.Add(res.Stats.NogoodsRecorded)
		obsSearchNogoodHits.Add(res.Stats.NogoodHits)
	}
	if span != nil {
		span.SetStr("strategy", res.Stats.Strategy)
		span.SetInt("nodes", res.Stats.Nodes)
		span.SetInt("backtracks", res.Stats.Backtracks)
		span.SetInt("prunings", res.Stats.Prunings)
		span.SetInt("max_depth", int64(res.Stats.MaxDepth))
		if res.Stats.Restarts > 0 || res.Stats.NogoodsRecorded > 0 {
			span.SetInt("restarts", res.Stats.Restarts)
			span.SetInt("nogoods", res.Stats.NogoodsRecorded)
			span.SetInt("nogood_hits", res.Stats.NogoodHits)
		}
		if res.Found {
			span.SetInt("found", 1)
		}
		if res.Aborted {
			span.SetInt("aborted", 1)
		}
		span.End()
	}
}

// finishObs routes the seed searcher (and CBJ) through the shared funnel.
func (s *searcher) finishObs(res Result) {
	flushSolveObs(s.span, res)
}
