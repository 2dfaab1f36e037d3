package csp_test

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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

// everyEngine is the default race's three lanes plus the two engines that
// left it, FC+Lex and join evaluation. Those stay strategy-table rows
// (strategy=fc, strategy=join), and cspd's timeout relies on their prompt
// cancellation as much as the race relies on its lanes'.
func everyEngine() []csp.PortfolioStrategy {
	return append(csp.DefaultStrategies(),
		csp.PortfolioStrategy{Name: "FC+Lex", Run: func(ctx context.Context, p *csp.Instance, opts csp.Options) csp.Result {
			opts.Algorithm, opts.VarOrder = csp.FC, csp.Lex
			return csp.SolveCtx(ctx, p, opts)
		}},
		csp.PortfolioStrategy{Name: "Join", Run: func(ctx context.Context, p *csp.Instance, _ csp.Options) csp.Result {
			return csp.JoinSolveCtx(ctx, p)
		}})
}

// laneAllocBound caps the bytes a lane may allocate before its second poll
// on a hard-search instance. The search lanes allocate their 35-50 KB of
// domains and supports before the first; a join lane that converts every
// constraint (three table copies each) and estimates every pair before
// polling again allocates about 1 MB.
const laneAllocBound = 128 << 10

// TestEveryLanePollsBeforeBoundedWork cancels every engine at its second
// context poll and requires it to return Aborted after bounded work: at most
// one poll interval of nodes, and at most laneAllocBound bytes allocated. A
// stretch of work that never polls — building the join lane's relations,
// planning its joins, a coarse node interval — fails it.
func TestEveryLanePollsBeforeBoundedWork(t *testing.T) {
	// A member of the phase-transition family the Hard route races the
	// portfolio on (20 variables, 10 values, density 0.3).
	p := gen.PhaseTransition(rand.New(rand.NewSource(1)), 20, 10, 0.3)
	for _, lane := range everyEngine() {
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

// TestLanesYieldOnOneProcessor starts every engine on a single processor
// against a rival lane that only needs the processor to return a verdict. A
// lane that yields at its polls hands the processor over within one
// interval, so the rival wins before the lane has done more than a few
// intervals of work; a lane that waits for the runtime's ~10 ms preemption
// runs thousands of nodes (or allocates megabytes, for join) first.
func TestLanesYieldOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := gen.Pigeonhole(12, 11) // hard for every lane: nobody finishes first
	nodeBound := int64(4 * csp.CancelCheckInterval)
	for _, lane := range everyEngine() {
		nodes, alloc := raceRivalOnOneProcessor(t, p, lane)
		if nodes > nodeBound {
			t.Errorf("%s: ran %d nodes on one processor before the rival's verdict stopped it, want <= %d",
				lane.Name, nodes, nodeBound)
		}
		if alloc > laneAllocBound {
			t.Errorf("%s: allocated %d bytes before the rival got the processor, want <= %d",
				lane.Name, alloc, laneAllocBound)
		}
	}
}

// raceRivalOnOneProcessor races lane against a rival that answers UNSAT as
// soon as it gets the processor, and returns the nodes the lane searched and
// the bytes allocated between the lane's start and the rival's turn. Only
// the rival's timing matters, not its verdict. The caller holds GOMAXPROCS
// at 1, and p must be hard enough for lane that the rival answers first.
func raceRivalOnOneProcessor(t *testing.T, p *csp.Instance, lane csp.PortfolioStrategy) (nodes int64, alloc uint64) {
	t.Helper()
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
		return csp.Result{}
	}}
	res := csp.Portfolio(context.Background(), p, csp.PortfolioOptions{Strategies: []csp.PortfolioStrategy{rival, slow}})
	if res.Winner != "rival" {
		t.Fatalf("%s: winner %q, want the rival", lane.Name, res.Winner)
	}
	return res.Reports[1].Stats.Nodes, atRival.TotalAlloc - atStart.TotalAlloc
}

// setupAllocBound caps the bytes a MAC+MRV or Learn lane allocates on the
// big-domain Model B instance before its second poll, or before a rival on
// one processor gets its turn. Set-up allocates the domains and watch-list
// headers (~200 KB for 150 variables of 50 values) before any poll, then
// 32 KB of support masks per 2,500-row constraint. One poll interval is
// cancelCheckInterval ticks of setupRowsPerTick rows, 2,048 rows, so two
// intervals touch at most three constraints: about 300 KB in all (~320 KB
// measured). A set-up that compiles every constraint's masks before its
// first poll allocates about 45 MB here.
const setupAllocBound = 1 << 20

// TestLaneSetupPollsOnBigDomain pins prompt cancellation during the bitset
// engine's set-up. On the mixed family's big-domain Model B member (150
// variables, 50 values, ~1,300 constraints of ~2,500 rows), MAC+MRV and
// Learn spend tens of milliseconds compiling supports before their search
// starts, while CBJ decides the instance in about a millisecond. A lane
// cancelled at its second poll must return Aborted after bounded allocation,
// and on one processor it must hand the processor to a rival within a poll
// interval or two, not after compiling every table.
func TestLaneSetupPollsOnBigDomain(t *testing.T) {
	p := gen.ModelB(rand.New(rand.NewSource(1)), 150, 50, 0.12, 0.01)
	var lanes []csp.PortfolioStrategy
	for _, lane := range csp.DefaultStrategies() {
		if lane.Name == "MAC+MRV" || lane.Name == "Learn" {
			lanes = append(lanes, lane)
		}
	}
	if len(lanes) != 2 {
		t.Fatalf("want the MAC+MRV and Learn lanes among the defaults, got %d", len(lanes))
	}
	for _, lane := range lanes {
		ctx := &cancelOnSecondErr{Context: context.Background()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res := lane.Run(ctx, p, csp.Options{})
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if !res.Aborted || res.Found || res.Stats.Nodes != 0 {
			t.Errorf("%s: want Aborted in set-up, got found=%v aborted=%v nodes=%d",
				lane.Name, res.Found, res.Aborted, res.Stats.Nodes)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > setupAllocBound {
			t.Errorf("%s: allocated %d bytes before aborting in set-up, want <= %d", lane.Name, alloc, setupAllocBound)
		}
		t.Logf("%s: cancelled in set-up, returned after %v", lane.Name, elapsed)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, lane := range lanes {
		nodes, alloc := raceRivalOnOneProcessor(t, p, lane)
		if nodes != 0 {
			t.Errorf("%s: searched %d nodes before the rival got the processor, want 0 (still in set-up)", lane.Name, nodes)
		}
		if alloc > setupAllocBound {
			t.Errorf("%s: allocated %d bytes before the rival got the processor, want <= %d",
				lane.Name, alloc, setupAllocBound)
		}
	}
}
