package csp_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"csdb/internal/csp"
	"csdb/internal/gen"
	"csdb/internal/obs"
)

// raceTries is how many races a staged-race test may run to see a timing
// outcome: a scheduler's rare unlucky turn can hold a lane past the delay.
const raceTries = 3

// reportOf returns the named lane's report from a race.
func reportOf(t *testing.T, res csp.PortfolioResult, name string) csp.StrategyReport {
	t.Helper()
	for _, rep := range res.Reports {
		if rep.Name == name {
			return rep
		}
	}
	t.Fatalf("no %s report among %+v", name, res.Reports)
	return csp.StrategyReport{}
}

// idle reports whether a lane report is that of a lane the race never
// started: Aborted, with zero Stats.
func idle(rep csp.StrategyReport) bool {
	return rep.Aborted && !rep.Found && rep.Stats == (csp.Stats{})
}

// settled fails unless the goroutine count returns to baseline: Portfolio
// waits for every lane it started, and a lane's goroutine exits just after
// handing over its verdict.
func settled(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the race, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPortfolioStagedLearnIdle races the default lanes on 6-queens, which
// MAC+MRV or the CBJ probe decides in well under the join delay: Learn
// never starts, so its report is idle and it runs no node.
func TestPortfolioStagedLearnIdle(t *testing.T) {
	p := gen.NQueens(6)
	baseline := runtime.NumGoroutine()
	var res csp.PortfolioResult
	var learn csp.StrategyReport
	for try := 0; try < raceTries && !idle(learn); try++ {
		res = csp.Portfolio(context.Background(), p, csp.PortfolioOptions{})
		settled(t, baseline)
		if !res.Found || !p.Satisfies(res.Solution) {
			t.Fatalf("6-queens: found=%v, want a checked solution (winner %q)", res.Found, res.Winner)
		}
		learn = reportOf(t, res, "Learn")
	}
	if !idle(learn) || learn.Stats.Nodes != 0 {
		t.Fatalf("6-queens: Learn report %+v, want idle with 0 nodes", learn)
	}
	if res.Winner != "MAC+MRV" && res.Winner != "CBJ" {
		t.Fatalf("6-queens: winner %q with Learn idle, want MAC+MRV or CBJ", res.Winner)
	}
}

// TestPortfolioStagedCancelled races under a context cancelled before the
// race: MAC+MRV and CBJ start and abort at their first poll, and Learn
// never starts, though every started lane ended without a verdict.
func TestPortfolioStagedCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	baseline := runtime.NumGoroutine()
	res := csp.Portfolio(ctx, gen.NQueens(6), csp.PortfolioOptions{})
	settled(t, baseline)
	if !res.Aborted || res.Winner != "" {
		t.Fatalf("cancelled race: aborted=%v winner %q, want Aborted without a winner", res.Aborted, res.Winner)
	}
	if learn := reportOf(t, res, "Learn"); !idle(learn) {
		t.Fatalf("cancelled race: Learn report %+v, want idle", learn)
	}
}

// TestPortfolioStagedNodeLimit gives every lane a budget of one node, which
// MAC+MRV and the CBJ probe exhaust at once: Learn then starts without
// waiting out its delay, and spends its own node. A held lane whose delay
// is an hour shows the same without timing: the race ends as soon as the
// lane started before it has ended without a verdict.
func TestPortfolioStagedNodeLimit(t *testing.T) {
	baseline := runtime.NumGoroutine()
	res := csp.Portfolio(context.Background(), gen.NQueens(6), csp.PortfolioOptions{Options: csp.Options{NodeLimit: 1}})
	settled(t, baseline)
	if !res.Aborted {
		t.Fatalf("node limit 1: want Aborted, got %+v (winner %q)", res.Result, res.Winner)
	}
	for _, rep := range res.Reports {
		if !rep.Aborted || rep.Stats.Nodes != 1 {
			t.Errorf("node limit 1: %s report aborted=%v nodes=%d, want Aborted after 1 node", rep.Name, rep.Aborted, rep.Stats.Nodes)
		}
	}

	starved := csp.PortfolioStrategy{Name: "starved", Run: func(context.Context, *csp.Instance, csp.Options) csp.Result {
		return csp.Result{Aborted: true}
	}}
	held := csp.HoldLane(csp.PortfolioStrategy{Name: "held", Run: func(context.Context, *csp.Instance, csp.Options) csp.Result {
		return csp.Result{}
	}}, time.Hour)
	start := time.Now()
	res = csp.Portfolio(context.Background(), gen.NQueens(6), csp.PortfolioOptions{Strategies: []csp.PortfolioStrategy{starved, held}})
	settled(t, baseline)
	if res.Winner != "held" || time.Since(start) > time.Minute {
		t.Fatalf("held lane behind an aborted one: winner %q after %v, want held at once", res.Winner, time.Since(start))
	}
}

// TestPortfolioStagedLearnWins races the default lanes on the quasigroup
// completion instance of BENCH_search, which Learn decides in tens of
// milliseconds and MAC+MRV in hundreds: Learn joins after its delay and
// still wins.
func TestPortfolioStagedLearnWins(t *testing.T) {
	p := gen.Quasigroup(rand.New(rand.NewSource(1)), 18, 130)
	baseline := runtime.NumGoroutine()
	winner := ""
	for try := 0; try < raceTries && winner != "Learn"; try++ {
		res := csp.Portfolio(context.Background(), p, csp.PortfolioOptions{})
		settled(t, baseline)
		if res.Aborted || (res.Found && !p.Satisfies(res.Solution)) {
			t.Fatalf("quasigroup: aborted=%v found=%v, want a checked verdict", res.Aborted, res.Found)
		}
		winner = res.Winner
	}
	if winner != "Learn" {
		t.Fatalf("quasigroup: winner %q, want Learn", winner)
	}
}

// TestPortfolioLaneOutcomes pins the labeled per-lane outcome vector: a
// 6-queens race, decided before Learn joins, increments one win, one loss
// and Learn's idle series; a race Learn wins increments one win and two
// losses.
func TestPortfolioLaneOutcomes(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })

	lanes := map[string]string{"MAC+MRV": "mac_mrv", "CBJ": "cbj", "Learn": "learn"}
	outcomes := []string{"win", "loss", "idle"}
	// race runs one default race on p and returns its winner and the
	// outcome deltas it recorded, summed over the lanes.
	race := func(p *csp.Instance) (string, map[string]int64) {
		before := map[string]int64{}
		for _, l := range lanes {
			for _, o := range outcomes {
				before[l+o] = csp.LaneOutcomes(l, o)
			}
		}
		res := csp.Portfolio(context.Background(), p, csp.PortfolioOptions{})
		delta := map[string]int64{}
		for _, l := range lanes {
			for _, o := range outcomes {
				delta[o] += csp.LaneOutcomes(l, o) - before[l+o]
			}
		}
		if w := lanes[res.Winner]; csp.LaneOutcomes(w, "win")-before[w+"win"] != 1 {
			t.Fatalf("winner %q: no win recorded for its lane", res.Winner)
		}
		return res.Winner, delta
	}

	var delta map[string]int64
	for try := 0; try < raceTries && delta["idle"] != 1; try++ {
		_, delta = race(gen.NQueens(6))
	}
	if delta["win"] != 1 || delta["loss"] != 1 || delta["idle"] != 1 {
		t.Fatalf("6-queens race: outcome deltas %v, want 1 win, 1 loss, 1 idle", delta)
	}

	q := gen.Quasigroup(rand.New(rand.NewSource(1)), 18, 130)
	winner := ""
	for try := 0; try < raceTries && winner != "Learn"; try++ {
		winner, delta = race(q)
	}
	if winner != "Learn" || delta["win"] != 1 || delta["loss"] != 2 || delta["idle"] != 0 {
		t.Fatalf("quasigroup race: winner %q, outcome deltas %v, want Learn with 1 win and 2 losses", winner, delta)
	}
}
