package csp

// CancelCheckInterval exposes the amortized poll interval to the external
// tests that bound a lane's work between polls.
const CancelCheckInterval = cancelCheckInterval
