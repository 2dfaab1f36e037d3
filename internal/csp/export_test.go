package csp

// CancelCheckInterval exposes the amortized poll interval to the external
// tests that bound a lane's work between polls.
const CancelCheckInterval = cancelCheckInterval

// SetupRowsPerTick exposes the rows of support compilation per tick, so an
// external test can tell a lane's set-up polls from its search's.
const SetupRowsPerTick = setupRowsPerTick
