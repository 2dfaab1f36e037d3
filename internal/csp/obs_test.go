package csp

import (
	"context"
	"testing"

	"csdb/internal/obs"
)

// withObs runs f with metric recording on, restoring the prior state.
func withObs(t *testing.T, f func()) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	f()
}

// obsTestInstance is an instance hard enough that every portfolio lane
// racks up real node counts: a 6-queens board via the inequality tables the
// package tests use.
func obsTestInstance() *Instance {
	const n = 6
	p := NewInstance(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var rows [][]int
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a != b && a-b != j-i && b-a != j-i {
						rows = append(rows, []int{a, b})
					}
				}
			}
			p.MustAddConstraint([]int{i, j}, TableOf(2, rows...))
		}
	}
	return p
}

// TestPortfolioStatsMatchRegistry is the acceptance test for routing Stats
// merging through the shared registry: the race's merged Total must equal
// the sum of the per-strategy reports and the registry delta (every
// competitor flushes its own effort exactly once, through the same per-solve
// flush the merged total is built from).
func TestPortfolioStatsMatchRegistry(t *testing.T) {
	withObs(t, func() {
		p := obsTestInstance()
		before := obsSearchNodes.Load()
		beforeRaces := obsPortfolioRaces.Load()
		beforeWins := map[string]int64{}
		for _, st := range DefaultStrategies() {
			beforeWins[st.Name] = obsPortfolioLane.Load(laneLabel(st.Name), "win")
		}

		res := Portfolio(context.Background(), p, PortfolioOptions{})
		if !res.Found {
			t.Fatal("portfolio unsolved")
		}
		var reportSum int64
		for _, rep := range res.Reports {
			reportSum += rep.Stats.Nodes
		}
		if reportSum != res.Total.Nodes {
			t.Fatalf("report sum %d != Total %d", reportSum, res.Total.Nodes)
		}
		if got := obsSearchNodes.Load() - before; got != res.Total.Nodes {
			t.Fatalf("registry node delta %d != portfolio Total %d", got, res.Total.Nodes)
		}
		if got := obsPortfolioRaces.Load() - beforeRaces; got != 1 {
			t.Fatalf("race counter delta %d, want 1", got)
		}
		for name, was := range beforeWins {
			want := int64(0)
			if name == res.Winner {
				want = 1
			}
			if got := obsPortfolioLane.Load(laneLabel(name), "win") - was; got != want {
				t.Fatalf("lane %s win delta %d, want %d (winner %q)", name, got, want, res.Winner)
			}
		}
	})
}

// TestSolveTraceSpans checks the span shape of a traced MAC solve at the
// library level (the daemon-level twin lives in cmd/cspd).
func TestSolveTraceSpans(t *testing.T) {
	prev := obs.Tracing()
	obs.SetTracing(true)
	defer obs.SetTracing(prev)
	obs.DefaultTracer().Drain()
	defer obs.DefaultTracer().Drain()

	root := obs.StartRoot("test", "t-1")
	ctx := obs.WithSpan(context.Background(), root)
	res := SolveCtx(ctx, obsTestInstance(), Options{})
	root.End()
	if !res.Found {
		t.Fatal("unsolved")
	}

	spans := obs.DefaultTracer().Drain()
	var solveID, searchID uint64
	for _, sp := range spans {
		switch sp.Name {
		case "csp.solve":
			solveID = sp.ID
			if sp.TraceID != "t-1" {
				t.Fatalf("solve span trace %q", sp.TraceID)
			}
		case "csp.search":
			searchID = sp.ID
		}
	}
	if solveID == 0 || searchID == 0 {
		t.Fatalf("missing solve/search spans in %d spans", len(spans))
	}
	propagates := 0
	for _, sp := range spans {
		if sp.Name == "csp.propagate" && (sp.Parent == solveID || sp.Parent == searchID) {
			propagates++
		}
	}
	if propagates < 2 {
		t.Fatalf("got %d propagation spans, want root + per-assignment waves", propagates)
	}
}
