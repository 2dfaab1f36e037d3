package main

import (
	"net/http"
	"os"
	"strings"
	"testing"

	"csdb/internal/dispatch"
)

// The dispatcher surface of /solve: route=auto and route=portfolio for the
// same instance are distinct cache keys (the route is the Strategy
// component of the key), agree on the verdict, and only the auto response
// carries the structural route.
func TestSolveRouteDistinctCacheKeys(t *testing.T) {
	ts, _ := startDaemon(t)
	executedBefore := obsExecuted.Load()

	auto := postSolve(t, ts, "route=auto&timeout=30s", sampleInstance)
	port := postSolve(t, ts, "route=portfolio&timeout=30s", sampleInstance)
	if d := obsExecuted.Load() - executedBefore; d != 2 {
		t.Fatalf("distinct routes shared a cache entry: %d engine runs, want 2", d)
	}
	if auto.Cached || port.Cached {
		t.Fatalf("fresh solves reported cached: auto=%v portfolio=%v", auto.Cached, port.Cached)
	}
	if auto.Found != port.Found || !auto.Found {
		t.Fatalf("verdicts disagree: auto=%v portfolio=%v (sample is satisfiable)",
			auto.Found, port.Found)
	}
	// sampleInstance is a binary not-equal chain: the dispatcher must have
	// classified it tree and said so; the portfolio route reports none.
	if auto.Route != "tree" {
		t.Fatalf("auto route = %q, want \"tree\"", auto.Route)
	}
	if port.Route != "" {
		t.Fatalf("portfolio response carries route %q", port.Route)
	}

	// Replays hit their own entries: no new engine runs, routes preserved.
	auto2 := postSolve(t, ts, "route=auto&timeout=30s", sampleInstance)
	port2 := postSolve(t, ts, "route=portfolio&timeout=30s", sampleInstance)
	if !auto2.Cached || !port2.Cached {
		t.Fatalf("replays not cached: auto=%v portfolio=%v", auto2.Cached, port2.Cached)
	}
	if d := obsExecuted.Load() - executedBefore; d != 2 {
		t.Fatalf("cached replays ran the engine: %d runs, want 2", d)
	}
	if auto2.Route != auto.Route {
		t.Fatalf("cached replay changed the route: %q vs %q", auto2.Route, auto.Route)
	}
}

func TestSolveRouteParamValidation(t *testing.T) {
	ts, _ := startDaemon(t)
	for _, q := range []string{"route=bogus", "strategy=mac&route=auto", "strategy=portfolio&route=auto"} {
		resp, err := http.Post(ts.URL+"/solve?"+q, "text/plain", strings.NewReader(sampleInstance))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/solve?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	// An agreeing strategy=auto&route=auto is not a conflict.
	if res := postSolve(t, ts, "strategy=auto&route=auto&timeout=30s", sampleInstance); !res.Found {
		t.Fatal("strategy=auto&route=auto rejected or wrong verdict")
	}
	// route=auto on an unsatisfiable instance still reports its route.
	res := postSolve(t, ts, "route=auto&timeout=30s", unsatInstance)
	if res.Found {
		t.Fatal("unsat instance reported SAT")
	}
	if res.Route == "" {
		t.Fatal("auto response missing route on UNSAT")
	}
}

// Only strategy=auto consults structure. Outcome.Route's zero value is
// Tree, so an engine row that leaked it would claim a route it never took:
// every engine row must leave "route" empty and label its latency series
// route="engine".
func TestEngineRowsReportNoRoute(t *testing.T) {
	ts, _ := startDaemon(t)
	for _, name := range dispatch.Names() {
		res := postSolve(t, ts, "strategy="+name+"&timeout=10s", sampleInstance)
		switch {
		case name == "auto" && res.Route != "tree":
			t.Fatalf("auto route = %q, want tree", res.Route)
		case name != "auto" && res.Route != "":
			t.Fatalf("engine strategy %s reports route %q", name, res.Route)
		}
		if name != "auto" && routeLabel(res.Route) != "engine" {
			t.Fatalf("engine strategy %s labelled route %q", name, routeLabel(res.Route))
		}
	}
}

// An ear-grown acyclic instance whose primal graph exceeds the width budget
// routes acyclic — the class csolve -strategy auto and core.Problem.Solve
// report for the same file.
func TestSolveRoutesWideAcyclic(t *testing.T) {
	body, err := os.ReadFile("../../testdata/acyclic_wide.csp")
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := startDaemon(t)
	res := postSolve(t, ts, "route=auto&timeout=10s", string(body))
	if res.Route != "acyclic" || !res.Found {
		t.Fatalf("route=%q found=%v, want acyclic and SAT", res.Route, res.Found)
	}
}
