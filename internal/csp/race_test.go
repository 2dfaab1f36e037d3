package csp_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/gen"
)

// cancelOnSecondErr is a context whose Err reports Canceled from its second
// call on: the first poll a lane makes passes, and the next one must stop it.
// It never closes a Done channel, so only polling observes the cancellation.
type cancelOnSecondErr struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelOnSecondErr) Err() error {
	if c.calls.Add(1) >= 2 {
		return context.Canceled
	}
	return nil
}

// laneAllocBound caps the bytes a lane may allocate before its second poll
// on a hard-search instance. The search lanes allocate their 35-50 KB of
// domains and supports before the first; a join lane that converts every
// constraint (three table copies each) and estimates every pair before
// polling again allocates about 1 MB.
const laneAllocBound = 128 << 10

// TestEveryLanePollsBeforeBoundedWork cancels each DefaultStrategies lane at
// its second context poll and requires it to return Aborted after bounded
// work: at most one poll interval of nodes, and at most laneAllocBound bytes
// allocated. A stretch of work that never polls — building the join lane's
// relations, planning its joins, a coarse node interval — fails it.
func TestEveryLanePollsBeforeBoundedWork(t *testing.T) {
	// A member of the phase-transition family the Hard route races the
	// portfolio on (20 variables, 10 values, density 0.3).
	p := gen.PhaseTransition(rand.New(rand.NewSource(1)), 20, 10, 0.3)
	for _, lane := range csp.DefaultStrategies() {
		ctx := &cancelOnSecondErr{Context: context.Background()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := lane.Run(ctx, p, csp.Options{})
		runtime.ReadMemStats(&after)
		if !res.Aborted || res.Found {
			t.Errorf("%s: want Aborted at the second poll, got found=%v aborted=%v", lane.Name, res.Found, res.Aborted)
		}
		if res.Stats.Nodes > csp.CancelCheckInterval {
			t.Errorf("%s: %d nodes before aborting, want <= %d (one poll interval)",
				lane.Name, res.Stats.Nodes, csp.CancelCheckInterval)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > laneAllocBound {
			t.Errorf("%s: allocated %d bytes before aborting, want <= %d", lane.Name, alloc, laneAllocBound)
		}
	}
}

// TestLanesYieldOnOneProcessor starts each DefaultStrategies lane on a
// single processor against a rival lane that only needs the processor to
// return a verdict. A lane that yields at its polls hands the processor over
// within one interval, so the rival wins before the lane has done more than
// a few intervals of work; a lane that waits for the runtime's ~10 ms
// preemption runs thousands of nodes (or allocates megabytes, for join)
// first.
func TestLanesYieldOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := gen.Pigeonhole(12, 11) // hard for every lane: nobody finishes first
	nodeBound := int64(4 * csp.CancelCheckInterval)
	for _, lane := range csp.DefaultStrategies() {
		started := make(chan struct{})
		var atStart, atRival runtime.MemStats
		slow := csp.PortfolioStrategy{Name: lane.Name, Run: func(ctx context.Context, p *csp.Instance, o csp.Options) csp.Result {
			runtime.ReadMemStats(&atStart)
			close(started)
			return lane.Run(ctx, p, o)
		}}
		rival := csp.PortfolioStrategy{Name: "rival", Run: func(context.Context, *csp.Instance, csp.Options) csp.Result {
			<-started
			runtime.ReadMemStats(&atRival)
			return csp.Result{} // pigeonhole(12, 11) is unsatisfiable
		}}
		res := csp.Portfolio(context.Background(), p, csp.PortfolioOptions{Strategies: []csp.PortfolioStrategy{rival, slow}})
		if res.Winner != "rival" {
			t.Fatalf("%s: winner %q, want the rival", lane.Name, res.Winner)
		}
		if nodes := res.Reports[1].Stats.Nodes; nodes > nodeBound {
			t.Errorf("%s: ran %d nodes on one processor before the rival's verdict stopped it, want <= %d",
				lane.Name, nodes, nodeBound)
		}
		if alloc := atRival.TotalAlloc - atStart.TotalAlloc; alloc > laneAllocBound {
			t.Errorf("%s: allocated %d bytes before the rival got the processor, want <= %d",
				lane.Name, alloc, laneAllocBound)
		}
	}
}
