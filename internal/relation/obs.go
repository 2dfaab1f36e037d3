package relation

import "csdb/internal/obs"

// Observability handles for the relational kernel. Everything is recorded at
// operator-call boundaries — one flush per join-tree run — never per probed
// row, so the disabled-mode cost is a few atomic loads per operator. Every
// join of the package is a join-tree run (Eval included), so these
// counters record them all.
//
// Metric catalog (see README "Observability"):
//
//	relation.jointree.solves       join-tree engine runs: up passes (the
//	                               tree, acyclic and width routes' solves
//	                               and counts, conjunctive-query answers,
//	                               Eval and so JoinAll, Join and Project)
//	                               and full reducers (Reduce)
//	relation.jointree.semijoins    join and semijoin steps of a run
//	relation.jointree.rows_loaded  table rows entering a run
//	relation.jointree.rows_reduced message rows a pass sends to parents, or
//	                               rows surviving a full reducer
var (
	obsTreeSolves      = obs.NewCounter("relation.jointree.solves")
	obsTreeSemijoins   = obs.NewCounter("relation.jointree.semijoins")
	obsTreeRowsLoaded  = obs.NewCounter("relation.jointree.rows_loaded")
	obsTreeRowsReduced = obs.NewCounter("relation.jointree.rows_reduced")
)
