package csp

import (
	"context"
	"runtime"
	"time"
)

// cancelCheckInterval is the number of search nodes, propagation steps, FC
// support scans or set-up ticks between polls of the context. Polling a
// context involves an atomic load and possibly a channel check, which would
// dominate the per-node cost of cheap instances, so the check is amortized:
// a cancelled search keeps running for at most this many ticks before it
// notices and aborts.
//
// The interval is sized by the time a lane runs between polls, not by node
// count alone: that time bounds how late a cancelled portfolio loser
// returns, and how far past yieldQuantum a lane can run before it yields.
// Every engine ticks at a step of bounded cost (a node, one FC support
// scan, setupRowsPerTick rows of the bitset engine's support compilation,
// a bitset revision per word of its masks), so 128 ticks measure 15-70 µs
// on the hard-search family (PhaseTransition(20, 10, 0.3)), on Model B at
// n=35 and on pigeonhole, 20-65 µs of set-up on the big-domain Model B
// instance (n=150, d=50), and up to 0.2 ms for CBJ on quasigroup
// completion, whose nodes each check dozens of constraints. A bitset
// revision's cost grows with the table, so it is charged one tick per mask
// word (cancelledAfter): at one tick each, 128 revisions of that Model B
// instance's 2,500-row (40-word) tables took 1-2 ms, while a one-word
// revision, the hard-search family's, still costs one tick. A loser's
// cancel-to-return lag in a hard-search race is p90 0.05 ms (FC+Lex was p50
// 1.4 ms at 1,024 nodes a poll).
const cancelCheckInterval = 128

// yieldQuantum is the least time a lane runs between two yields of the
// processor. Polls come every cancelCheckInterval ticks, as little as 15 µs
// apart, and a yield there can wake an idle processor and move the
// goroutine: yielding at every poll slowed bitset MAC running alone on
// pigeonhole(9, 8) by ~20%. A poll therefore yields only once the lane has
// run this long since it last got the processor back; the clock read costs
// ~40 ns. Racing lanes still share processors in slices of about 0.1 ms,
// against the runtime's ~10 ms preemption turns. internal/relation's join
// poller uses the same quantum.
const yieldQuantum = 100 * time.Microsecond

// cancelChecker amortizes context-cancellation checks over a countdown so
// the search hot path pays one integer decrement per node instead of one
// context poll. An amortized poll also yields the processor
// (runtime.Gosched) once the lane has run for yieldQuantum, so k racing
// lanes on p < k processors share time in short slices and the winner of a
// portfolio race is not stuck behind a loser's preemption turn: the default
// race runs three lanes, more than a two-core machine has processors. The
// first poll always yields, so racing lanes all get started promptly. The
// bitset engine ticks the same checker while it compiles its supports, so a
// lane cancelled before its search starts stops as promptly as one
// cancelled mid-search.
type cancelChecker struct {
	ctx       context.Context
	countdown int
	resumed   time.Time // when the lane last returned from a yield
}

func newCancelChecker(ctx context.Context) cancelChecker {
	return cancelChecker{ctx: ctx, countdown: cancelCheckInterval}
}

// cancelledAfter reports whether the context has been cancelled after a
// step that costs n ticks: it pays n off the countdown and polls the
// context (yielding the processor, if the lane has run for yieldQuantum)
// only when the countdown runs out, so a search node costs one tick and a
// step n times dearer brings the next poll n ticks closer. The countdown is
// small enough to inline into the search loops; poll is the out-of-line
// rest.
func (c *cancelChecker) cancelledAfter(n int) bool {
	if c.ctx == nil {
		return false
	}
	c.countdown -= n
	if c.countdown > 0 {
		return false
	}
	return c.poll()
}

func (c *cancelChecker) poll() bool {
	c.countdown = cancelCheckInterval
	if time.Since(c.resumed) >= yieldQuantum {
		runtime.Gosched()
		c.resumed = time.Now()
	}
	return c.ctx.Err() != nil
}

// cancelledNow polls the context immediately, for phase boundaries (root
// propagation, join steps) where the amortized countdown has not been paid
// down by node visits.
func (c *cancelChecker) cancelledNow() bool {
	return c.ctx != nil && c.ctx.Err() != nil
}
