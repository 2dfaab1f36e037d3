package relation

import "csdb/internal/obs"

// Observability handles for the relational kernel. Everything is recorded at
// operator-call boundaries — one flush per join, JoinAll or join-tree run — never per
// probed row, so the disabled-mode cost is a few atomic loads per operator.
//
// Metric catalog (see README "Observability"):
//
//	relation.join.calls          pairwise natural joins executed
//	relation.join.probe_rows     probe-side rows streamed
//	relation.join.build_rows     build-side rows hashed
//	relation.join.output_rows    result rows emitted
//	relation.join.arena_bytes    bytes appended to result arenas
//	relation.planner.joins       multiway joins planned (JoinAll calls)
//	relation.planner.pairs       pairwise joins the planner committed
//	relation.planner.est_rows    summed cardinality estimates of those pairs
//	relation.planner.actual_rows summed actual cardinalities
//	relation.planner.est_ratio   histogram of max(est,actual)/min(est,actual)
//	                             per pair — the planner's estimate error
//	relation.jointree.solves       join-tree engine runs: up passes (the
//	                               tree, acyclic and width routes' solves
//	                               and counts, conjunctive-query answers)
//	                               and full reducers (Reduce)
//	relation.jointree.semijoins    join and semijoin steps of a run
//	relation.jointree.rows_loaded  table rows entering a run
//	relation.jointree.rows_reduced message rows a pass sends to parents, or
//	                               rows surviving a full reducer
var (
	obsJoinCalls         = obs.NewCounter("relation.join.calls")
	obsJoinProbeRows     = obs.NewCounter("relation.join.probe_rows")
	obsJoinBuildRows     = obs.NewCounter("relation.join.build_rows")
	obsJoinOutputRows    = obs.NewCounter("relation.join.output_rows")
	obsJoinArenaBytes    = obs.NewCounter("relation.join.arena_bytes")
	obsPlannerJoins      = obs.NewCounter("relation.planner.joins")
	obsPlannerPairs      = obs.NewCounter("relation.planner.pairs")
	obsPlannerEstRows    = obs.NewCounter("relation.planner.est_rows")
	obsPlannerActualRows = obs.NewCounter("relation.planner.actual_rows")
	obsPlannerEstRatio   = obs.NewHistogram("relation.planner.est_ratio")
	obsTreeSolves        = obs.NewCounter("relation.jointree.solves")
	obsTreeSemijoins     = obs.NewCounter("relation.jointree.semijoins")
	obsTreeRowsLoaded    = obs.NewCounter("relation.jointree.rows_loaded")
	obsTreeRowsReduced   = obs.NewCounter("relation.jointree.rows_reduced")
)

// intBytes is the arena footprint of n stored ints.
const intBytes = 8

// recordPlannerPair flushes one committed pairwise join of the multiway
// planner: its a-priori estimate against the materialized cardinality. The
// error ratio is symmetric (>= 1; over- and under-estimates count alike)
// with actual clamped to 1 so empty results stay measurable.
func recordPlannerPair(est, actual int64) {
	if !obs.Enabled() {
		return
	}
	obsPlannerPairs.Inc()
	obsPlannerEstRows.Add(est)
	obsPlannerActualRows.Add(actual)
	if actual < 1 {
		actual = 1
	}
	if est < 1 {
		est = 1
	}
	ratio := est / actual
	if actual > est {
		ratio = actual / est
	}
	obsPlannerEstRatio.Observe(ratio)
}
