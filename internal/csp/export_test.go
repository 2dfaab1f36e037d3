package csp

import "time"

// CancelCheckInterval exposes the amortized poll interval to the external
// tests that bound a lane's work between polls.
const CancelCheckInterval = cancelCheckInterval

// SetupRowsPerTick exposes the rows of support compilation per tick, so an
// external test can tell a lane's set-up polls from its search's.
const SetupRowsPerTick = setupRowsPerTick

// HoldLane returns st held back from a race by a join delay d, as
// DefaultStrategies holds Learn.
func HoldLane(st PortfolioStrategy, d time.Duration) PortfolioStrategy {
	st.joinAfter = d
	return st
}

// LaneOutcomes reads the csp.portfolio.lane series of one lane label and
// outcome.
func LaneOutcomes(lane, outcome string) int64 {
	return obsPortfolioLane.Load(lane, outcome)
}
