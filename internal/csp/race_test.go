package csp_test

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
// left it, FC+Lex and join evaluation. FC stays a strategy-table row
// (strategy=fc) and join evaluation stays Proposition 2.1's decider, and
// both must cancel as promptly as the race's lanes.
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

// rivalRaces is how many races raceRivalOnOneProcessor runs.
const rivalRaces = 3

// raceRivalOnOneProcessor races lane against a rival that answers UNSAT as
// soon as it gets the processor, rivalRaces times, and returns the most
// nodes the lane searched in any race and the least bytes allocated between
// the lane's start and the rival's turn. Only the rival's timing matters,
// not its verdict. TotalAlloc counts every goroutine's allocations, so the
// lane's own is the least delta over the races: other tests and the runtime
// share the process, and any one window may catch their allocations too.
// The caller holds GOMAXPROCS at 1, and p must be hard enough for lane that
// the rival answers first.
func raceRivalOnOneProcessor(t *testing.T, p *csp.Instance, lane csp.PortfolioStrategy) (nodes int64, alloc uint64) {
	t.Helper()
	alloc = math.MaxUint64
	for range rivalRaces {
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
		nodes = max(nodes, res.Reports[1].Stats.Nodes)
		alloc = min(alloc, atRival.TotalAlloc-atStart.TotalAlloc)
	}
	return nodes, alloc
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

// pollClock is a context that records the time of every Err call and, from
// the call after number cancelAt on, reports Canceled: the lane is
// cancelled just after that poll and must notice at its next one. Only the
// lane's own goroutine polls it.
type pollClock struct {
	context.Context
	cancelAt int
	at       []time.Time
}

func (c *pollClock) Err() error {
	c.at = append(c.at, time.Now())
	if len(c.at) > c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestLanePollsInPropagationOnBigDomain pins prompt cancellation during the
// bitset engine's propagation, on the same big-domain Model B member as
// TestLaneSetupPollsOnBigDomain. There one revision runs word-wise over
// 40-word masks, so a poll every cancelCheckInterval revisions (1-2 ms)
// would come 20-50 times later than a poll every cancelCheckInterval
// set-up ticks (20-65 µs). A MAC+MRV lane cancelled just after a poll in
// its root propagation must return within a few set-up poll intervals.
// The bound is relative to the same run's set-up polls, so a slow machine
// or the race detector scales both sides alike.
func TestLanePollsInPropagationOnBigDomain(t *testing.T) {
	p := gen.ModelB(rand.New(rand.NewSource(1)), 150, 50, 0.12, 0.01)
	var lane csp.PortfolioStrategy
	for _, l := range csp.DefaultStrategies() {
		if l.Name == "MAC+MRV" {
			lane = l
		}
	}
	if lane.Run == nil {
		t.Fatal("want the MAC+MRV lane among the defaults")
	}
	// Set-up ticks once per SetupRowsPerTick rows of each table, and polls
	// once per CancelCheckInterval ticks.
	ticks := 0
	for _, c := range p.Constraints {
		ticks += (c.Table.Len() + csp.SetupRowsPerTick - 1) / csp.SetupRowsPerTick
	}
	setupPolls := ticks / csp.CancelCheckInterval
	median := func(ts []time.Time) time.Duration {
		gaps := make([]time.Duration, 0, len(ts))
		for i := 1; i < len(ts); i++ {
			gaps = append(gaps, ts[i].Sub(ts[i-1]))
		}
		slices.Sort(gaps)
		return gaps[len(gaps)/2]
	}
	for _, past := range []int{4, 8, 16} {
		ctx := &pollClock{Context: context.Background(), cancelAt: setupPolls + past}
		res := lane.Run(ctx, p, csp.Options{})
		returned := time.Now()
		if !res.Aborted || res.Found {
			t.Fatalf("cancelled %d polls past set-up: found=%v aborted=%v, want Aborted", past, res.Found, res.Aborted)
		}
		if len(ctx.at) != ctx.cancelAt+1 {
			t.Fatalf("cancelled %d polls past set-up: the lane polled %d times, want %d", past, len(ctx.at), ctx.cancelAt+1)
		}
		setupGap := median(ctx.at[2 : setupPolls-2])
		lag := returned.Sub(ctx.at[ctx.cancelAt-1])
		t.Logf("cancelled %d polls past set-up (%d set-up polls): returned %v after the cancel; set-up polls %v apart (median)",
			past, setupPolls, lag, setupGap)
		if lag > 8*setupGap {
			t.Errorf("cancelled %d polls past set-up: returned %v after the cancel, want <= 8 set-up poll intervals (%v)",
				past, lag, 8*setupGap)
		}
	}
}
