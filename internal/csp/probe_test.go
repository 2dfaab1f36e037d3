package csp_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/dispatch"
	"csdb/internal/gen"
)

// defaultLane returns the named lane of the default race.
func defaultLane(t *testing.T, name string) csp.PortfolioStrategy {
	t.Helper()
	for _, l := range csp.DefaultStrategies() {
		if l.Name == name {
			return l
		}
	}
	t.Fatalf("no %s lane among the defaults", name)
	return csp.PortfolioStrategy{}
}

// TestPortfolioCBJProbe pins the race's CBJ lane as a bounded probe: a
// budget of Vars×Dom nodes. On the Hard route's phase-transition family,
// where CBJ needs tens of thousands of nodes, the lane gives up within the
// budget (reporting Aborted after exactly the budget's nodes when it runs
// alone) and MAC+MRV or Learn wins. On the mixed
// family's big-domain and loose members, which CBJ decides nearly without
// backtracking, the lane decides well inside its budget and wins the race.
// The cbj strategy row stays complete: it decides an instance that needs
// more than Vars×Dom nodes.
func TestPortfolioCBJProbe(t *testing.T) {
	probe := defaultLane(t, "CBJ")
	for seed := int64(1); seed <= 4; seed++ {
		p := gen.PhaseTransition(rand.New(rand.NewSource(seed)), 20, 10, 0.3)
		budget := int64(p.Vars * p.Dom)
		alone := probe.Run(context.Background(), p, csp.Options{})
		if !alone.Aborted || alone.Found || alone.Stats.Nodes != budget {
			t.Errorf("phase-transition seed %d: CBJ probe alone found=%v aborted=%v nodes=%d, want Aborted at %d nodes",
				seed, alone.Found, alone.Aborted, alone.Stats.Nodes, budget)
		}
		res := csp.Portfolio(context.Background(), p, csp.PortfolioOptions{})
		if res.Winner != "MAC+MRV" && res.Winner != "Learn" {
			t.Errorf("phase-transition seed %d: winner %q, want MAC+MRV or Learn", seed, res.Winner)
		}
		for _, rep := range res.Reports {
			if rep.Name == "CBJ" && (!rep.Aborted || rep.Stats.Nodes > budget) {
				t.Errorf("phase-transition seed %d: CBJ report aborted=%v nodes=%d, want Aborted within %d nodes",
					seed, rep.Aborted, rep.Stats.Nodes, budget)
			}
		}
	}

	members := map[string]*csp.Instance{
		"big-domain": gen.ModelB(rand.New(rand.NewSource(1)), 150, 50, 0.12, 0.01),
		"loose":      gen.ModelB(rand.New(rand.NewSource(1)), 60, 10, 0.3, 0.1),
	}
	for name, p := range members {
		budget := int64(p.Vars * p.Dom)
		alone := probe.Run(context.Background(), p, csp.Options{})
		if alone.Aborted || !alone.Found || alone.Stats.Nodes > budget/2 {
			t.Errorf("%s: CBJ probe alone found=%v aborted=%v nodes=%d, want a solution well within %d nodes",
				name, alone.Found, alone.Aborted, alone.Stats.Nodes, budget)
		}
		// The other lanes spend 5-100 times CBJ's time on these members;
		// a retry absorbs a scheduler's rare unlucky turn.
		winner := ""
		for try := 0; try < 3 && winner != "CBJ"; try++ {
			winner = csp.Portfolio(context.Background(), p, csp.PortfolioOptions{}).Winner
		}
		if winner != "CBJ" {
			t.Errorf("%s: winner %q, want CBJ", name, winner)
		}
	}

	p := gen.PhaseTransition(rand.New(rand.NewSource(1)), 20, 10, 0.3)
	out, err := dispatch.NewAnalyzer(0, 0).Run(context.Background(), p, "cbj")
	if err != nil {
		t.Fatal(err)
	}
	if out.Aborted || out.Stats.Nodes <= int64(p.Vars*p.Dom) {
		t.Fatalf("cbj row: aborted=%v nodes=%d, want a verdict past %d nodes", out.Aborted, out.Stats.Nodes, p.Vars*p.Dom)
	}
	if out.Found && !p.Satisfies(out.Solution) {
		t.Fatal("cbj row: invalid solution")
	}
}

// TestLaneSetupAllocOnManyVars bounds what a lane allocates before its
// search on `vars 500000\ndom 2`, an 18-byte body with no constraints. The
// bounds are what each lane allocated when the bitset engine kept one
// watch-list slice per (variable, value) and both engines made one domain
// slice per variable: 0.5-1 million allocations and 45-76 MB. Set-up now
// makes a fixed handful of arrays, sized by the instance, whatever it
// holds. Learn's bound is tighter: its nogood watch lists, one slice
// header per (variable, value) and 24 MB here, are made with the first
// nogood of length >= 2, so a lane that records none (28 MB in all) stays
// under a bound that eager watch lists (52 MB) break.
func TestLaneSetupAllocOnManyVars(t *testing.T) {
	p := csp.NewInstance(500000, 2)
	before := map[string]uint64{"MAC+MRV": 48_026_880, "CBJ": 45_020_656, "Learn": 32_000_000}
	const maxAllocs = 64
	// A cancelled context: with no constraint to compile, a lane runs its
	// whole set-up and stops at its first poll, before any node.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, lane := range csp.DefaultStrategies() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := lane.Run(ctx, p, csp.Options{})
		runtime.ReadMemStats(&m1)
		if !res.Aborted || res.Stats.Nodes != 0 {
			t.Errorf("%s: aborted=%v nodes=%d, want Aborted before the search", lane.Name, res.Aborted, res.Stats.Nodes)
		}
		bytes, allocs := m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
		t.Logf("%s: set-up allocated %d bytes in %d allocations", lane.Name, bytes, allocs)
		if bytes > before[lane.Name] {
			t.Errorf("%s: set-up allocated %d bytes, want <= %d", lane.Name, bytes, before[lane.Name])
		}
		if allocs > maxAllocs {
			t.Errorf("%s: set-up made %d allocations, want <= %d", lane.Name, allocs, maxAllocs)
		}
	}
}
