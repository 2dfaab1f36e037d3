package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"csdb/internal/dispatch"
	"csdb/internal/obs"
)

// sampleInstance is a small satisfiable 3-variable instance in the cspio
// text format: a chain x!=y, y!=z over a 3-value domain. MAC solves it with
// root propagation plus a short search, which is exactly the span shape the
// trace test asserts on.
const sampleInstance = `
vars 3
dom 3
names x y z
con 0 1 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1
con 1 2 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1
`

// unsatInstance has no solution: x=y and x!=y simultaneously.
const unsatInstance = `
vars 2
dom 2
con 0 1 : 0 0 | 1 1
con 0 1 : 0 1 | 1 0
`

// testConfig is the daemon configuration used by the httptest harness:
// admission and caching on, bounds small but comfortable.
func testConfig() daemonConfig {
	return daemonConfig{
		maxTimeout:   time.Minute,
		drainTimeout: 5 * time.Second,
		readTimeout:  time.Minute,
		writeTimeout: 2 * time.Minute,
		idleTimeout:  time.Minute,
		maxInflight:  4,
		maxQueue:     16,
		cacheSize:    64,
	}
}

// withDaemonObs turns metrics, tracing and wide events on for one test (the
// daemon does this at startup), restoring global state afterwards.
func withDaemonObs(t *testing.T) {
	t.Helper()
	prevEnabled, prevTracing, prevEvents := obs.Enabled(), obs.Tracing(), obs.EventsActive()
	obs.SetEnabled(true)
	obs.SetTracing(true)
	obs.SetEvents(true)
	obs.DefaultTracer().Drain() // start from an empty ring
	obs.DefaultEvents().Drain()
	t.Cleanup(func() {
		obs.DefaultTracer().Drain()
		obs.DefaultEvents().Drain()
		obs.SetEnabled(prevEnabled)
		obs.SetTracing(prevTracing)
		obs.SetEvents(prevEvents)
	})
}

// startDaemon spins up the full daemon surface on an httptest server with
// observability on.
func startDaemon(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	return startDaemonCfg(t, testConfig())
}

func startDaemonCfg(t *testing.T, cfg daemonConfig) (*httptest.Server, *server) {
	t.Helper()
	withDaemonObs(t)
	srv := newServer(cfg)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return ts, srv
}

func postSolve(t *testing.T, ts *httptest.Server, query, body string) solveResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/solve?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve?%s: status %d", query, resp.StatusCode)
	}
	var out solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func drainSpans(t *testing.T, ts *httptest.Server, query string) []obs.SpanRecord {
	t.Helper()
	resp, err := http.Get(ts.URL + "/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace: status %d", resp.StatusCode)
	}
	var spans []obs.SpanRecord
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		spans = append(spans, rec)
	}
	return spans
}

// TestSolveEndToEnd drives /solve across every strategy-table row and
// checks verdicts.
func TestSolveEndToEnd(t *testing.T) {
	ts, _ := startDaemon(t)
	for _, strategy := range dispatch.Names() {
		res := postSolve(t, ts, "strategy="+strategy+"&timeout=10s", sampleInstance)
		if !res.Found || res.Aborted {
			t.Fatalf("strategy %s: found=%v aborted=%v", strategy, res.Found, res.Aborted)
		}
		if len(res.Solution) != 3 || res.Solution[0] == res.Solution[1] || res.Solution[1] == res.Solution[2] {
			t.Fatalf("strategy %s: bad solution %v", strategy, res.Solution)
		}
		if res.TraceID == "" {
			t.Fatalf("strategy %s: no trace id", strategy)
		}
	}
	if res := postSolve(t, ts, "strategy=mac", unsatInstance); res.Found || res.Aborted {
		t.Fatalf("unsat instance: found=%v aborted=%v", res.Found, res.Aborted)
	}
	if res := postSolve(t, ts, "strategy=portfolio", unsatInstance); res.Found || res.Winner == "" {
		t.Fatalf("unsat portfolio: found=%v winner=%q", res.Found, res.Winner)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	ts, _ := startDaemon(t)
	for _, tc := range []struct{ query, body string }{
		{"strategy=warp", sampleInstance},
		{"timeout=yesterday", sampleInstance},
		{"", "vars banana"},
	} {
		resp, err := http.Post(ts.URL+"/solve?"+tc.query, "text/plain", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q body %q: status %d, want 400", tc.query, tc.body, resp.StatusCode)
		}
	}
}

// TestTraceNesting is the acceptance test for structured tracing: a MAC
// solve's trace must contain the request root, the solve span under it, and
// search/propagation spans nested under the solve with correct parent IDs.
func TestTraceNesting(t *testing.T) {
	ts, _ := startDaemon(t)
	res := postSolve(t, ts, "strategy=mac", sampleInstance)
	spans := drainSpans(t, ts, "?trace_id="+res.TraceID)
	if len(spans) == 0 {
		t.Fatal("no spans for the request's trace id")
	}
	byID := map[uint64]obs.SpanRecord{}
	var root, solve, search obs.SpanRecord
	for _, sp := range spans {
		byID[sp.ID] = sp
		switch sp.Name {
		case "cspd.solve":
			root = sp
		case "csp.solve":
			solve = sp
		case "csp.search":
			search = sp
		}
		if sp.TraceID != res.TraceID {
			t.Fatalf("span %q has trace %q, want %q", sp.Name, sp.TraceID, res.TraceID)
		}
		if sp.EndNs < sp.StartNs {
			t.Fatalf("span %q ends before it starts", sp.Name)
		}
	}
	if root.ID == 0 || solve.ID == 0 || search.ID == 0 {
		t.Fatalf("missing expected spans (root=%d solve=%d search=%d) in %d spans",
			root.ID, solve.ID, search.ID, len(spans))
	}
	if root.Parent != 0 {
		t.Fatalf("request span has a parent: %+v", root)
	}
	if solve.Parent != root.ID {
		t.Fatalf("csp.solve parent = %d, want request span %d", solve.Parent, root.ID)
	}
	if search.Parent != solve.ID {
		t.Fatalf("csp.search parent = %d, want csp.solve %d", search.Parent, solve.ID)
	}
	rootPropagate, searchPropagate := 0, 0
	for _, sp := range spans {
		if sp.Name != "csp.propagate" {
			continue
		}
		switch sp.Parent {
		case solve.ID:
			rootPropagate++
		case search.ID:
			searchPropagate++
		default:
			t.Fatalf("propagate span parented to %d, not solve/search: %+v", sp.Parent, sp)
		}
	}
	if rootPropagate != 1 {
		t.Fatalf("got %d root propagation spans, want 1", rootPropagate)
	}
	if searchPropagate == 0 {
		t.Fatal("no per-assignment propagation spans under the search span")
	}
	// The ring was drained by the read above.
	if leftover := drainSpans(t, ts, ""); len(leftover) != 0 {
		t.Fatalf("/trace did not drain the ring: %d spans left", len(leftover))
	}
}

// TestMetricsEndpoint checks that solver work shows up in /metrics.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := startDaemon(t)
	postSolve(t, ts, "strategy=portfolio", sampleInstance)

	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"cspd.solve.requests", "csp.solve.calls", "csp.search.nodes",
		"csp.portfolio.races", "runtime.goroutines", "cspd.uptime_seconds",
	} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("/metrics missing %q (keys: %d)", key, len(snap))
		}
	}
	if v, ok := snap["cspd.solve.requests"].(float64); !ok || v < 1 {
		t.Fatalf("cspd.solve.requests = %v, want >= 1", snap["cspd.solve.requests"])
	}
	if hist, ok := snap["cspd.solve.ns"].(map[string]any); !ok || hist["count"].(float64) < 1 {
		t.Fatalf("cspd.solve.ns histogram missing or empty: %v", snap["cspd.solve.ns"])
	}
}

// TestPprofAndHealth checks the operational endpoints end to end.
func TestPprofAndHealth(t *testing.T) {
	ts, _ := startDaemon(t)
	for _, path := range []string{"/debug/pprof/heap?debug=1", "/debug/pprof/", "/debug/vars", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}
