package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"csdb/internal/csp"
)

// Tests for the serving layers wired into /solve: result caching with
// request collapsing, admission control with load shedding, and the
// method/body-size rejection paths.

// distinctInstance returns the i-th of a family of small, mutually
// non-equivalent instances (the lone constraint pins a different value).
func distinctInstance(i int) string {
	return fmt.Sprintf("vars 2\ndom 8\ncon 0 1 : %d %d\n", i%8, (i+1)%8)
}

// blockingDispatch is a controllable fake engine: each call signals
// `started`, then waits for `release` to be closed or its context to die.
func blockingDispatch(started chan<- struct{}, release <-chan struct{}) func(context.Context, *csp.Instance, solveParams) solveResponse {
	return func(ctx context.Context, _ *csp.Instance, p solveParams) solveResponse {
		started <- struct{}{}
		select {
		case <-release:
			return solveResponse{Strategy: p.strategy, Found: true, Solution: []int{0}, WallNs: 1}
		case <-ctx.Done():
			return solveResponse{Strategy: p.strategy, Aborted: true, WallNs: 1}
		}
	}
}

// TestSolveCollapsesIdenticalRequests is the acceptance test for the cache
// and collapsing layers: N identical concurrent POSTs must perform exactly
// one engine solve, and every caller must receive the same verdict — one
// response computed fresh (cached=false), the rest replayed (cached=true).
func TestSolveCollapsesIdenticalRequests(t *testing.T) {
	ts, _ := startDaemon(t)
	executedBefore := obsExecuted.Load()

	const callers = 8
	var wg, ready sync.WaitGroup
	results := make([]solveResponse, callers)
	for i := 0; i < callers; i++ {
		i := i
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			ready.Wait() // fire together
			results[i] = postSolve(t, ts, "strategy=mac&timeout=30s", sampleInstance)
		}()
	}
	wg.Wait()

	if d := obsExecuted.Load() - executedBefore; d != 1 {
		t.Fatalf("engine solves for %d identical requests = %d, want exactly 1", callers, d)
	}
	fresh := 0
	for i, res := range results {
		if !res.Found || res.Aborted {
			t.Fatalf("caller %d: found=%v aborted=%v", i, res.Found, res.Aborted)
		}
		if got, want := fmt.Sprint(res.Solution), fmt.Sprint(results[0].Solution); got != want {
			t.Fatalf("caller %d: solution %s != %s", i, got, want)
		}
		if res.WallNs != results[0].WallNs || res.Stats != results[0].Stats {
			t.Fatalf("caller %d: response not shared (wall %d vs %d)", i, res.WallNs, results[0].WallNs)
		}
		if !res.Cached {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d responses claim cached=false, want exactly 1 (the engine run)", fresh)
	}
}

// TestSolveCacheReplaysSequentialRequests checks the cache across
// non-overlapping requests, and that changing a strategy knob misses.
func TestSolveCacheReplaysSequentialRequests(t *testing.T) {
	ts, _ := startDaemon(t)
	executedBefore := obsExecuted.Load()

	first := postSolve(t, ts, "strategy=mac", sampleInstance)
	second := postSolve(t, ts, "strategy=mac", sampleInstance)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags: first=%v second=%v, want false/true", first.Cached, second.Cached)
	}
	if second.Stats != first.Stats || !second.Found {
		t.Fatalf("replayed response differs: %+v vs %+v", second, first)
	}
	if first.TraceID == second.TraceID {
		t.Fatalf("replayed response reused trace id %q", first.TraceID)
	}
	// Same instance under another strategy is a different cache entry.
	third := postSolve(t, ts, "strategy=fc", sampleInstance)
	if third.Cached {
		t.Fatal("different strategy served from cache")
	}
	// An equivalent instance with permuted constraints and tuples hits.
	permuted := `
vars 3
dom 3
con 1 2 : 2 1 | 2 0 | 1 2 | 1 0 | 0 2 | 0 1
con 0 1 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1
`
	fourth := postSolve(t, ts, "strategy=mac", permuted)
	if !fourth.Cached {
		t.Fatal("canonically equivalent instance missed the cache")
	}
	if d := obsExecuted.Load() - executedBefore; d != 2 {
		t.Fatalf("engine solves = %d, want 2 (mac once, fc once)", d)
	}
}

// TestSolveAbortedResultsAreNotCached pins the cacheability rule: a solve
// that aborts (timeout/shutdown) must not poison the cache.
func TestSolveAbortedResultsAreNotCached(t *testing.T) {
	ts, srv := startDaemon(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	srv.dispatch = blockingDispatch(started, release)

	// 1ns timeout: the fake engine sees ctx die immediately and aborts.
	res := postSolve(t, ts, "strategy=mac&timeout=1ns", sampleInstance)
	<-started
	if !res.Aborted || res.Cached {
		t.Fatalf("aborted=%v cached=%v, want true/false", res.Aborted, res.Cached)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("aborted result cached: cache has %d entries", n)
	}

	// The same request again must run the engine again (no poisoned entry);
	// released this time, it completes and does get cached.
	go func() { <-started; close(release) }()
	res = postSolve(t, ts, "strategy=mac&timeout=30s", sampleInstance)
	if res.Aborted || res.Cached || !res.Found {
		t.Fatalf("fresh solve after aborted one: %+v", res)
	}
	if n := srv.cache.Len(); n != 1 {
		t.Fatalf("completed result not cached: cache has %d entries", n)
	}
}

// TestSolveQueueOverflowSheds is the acceptance test for admission control:
// with one solve slot and a one-deep queue, a third concurrent distinct
// request must be rejected with 429 and a Retry-After header.
func TestSolveQueueOverflowSheds(t *testing.T) {
	cfg := testConfig()
	cfg.maxInflight = 1
	cfg.maxQueue = 1
	cfg.cacheSize = 0 // keep the engine path hot for every request
	ts, srv := startDaemonCfg(t, cfg)
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.dispatch = blockingDispatch(started, release)

	var wg sync.WaitGroup
	solve := func(i int) {
		defer wg.Done()
		res := postSolve(t, ts, "", distinctInstance(i))
		if !res.Found {
			t.Errorf("request %d: %+v", i, res)
		}
	}
	// Request 0 occupies the slot; request 1 queues.
	wg.Add(1)
	go solve(0)
	<-started
	wg.Add(1)
	go solve(1)
	waitForState(t, "waiter in queue", func() bool { return srv.admit.Queued() == 1 })

	// Request 2 overflows the queue: 429, Retry-After, no engine run.
	resp, err := http.Post(ts.URL+"/solve", "text/plain", strings.NewReader(distinctInstance(2)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d (body %s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}

	close(release)
	wg.Wait()
}

// TestUnknownStrategySpanAndCache guards the early-return interaction of
// the root span and the cache: a rejected strategy must leave exactly one
// (ended-once) root span in the ring, no cache entry, and no engine run.
func TestUnknownStrategySpanAndCache(t *testing.T) {
	ts, srv := startDaemon(t)
	executedBefore := obsExecuted.Load()

	resp, err := http.Post(ts.URL+"/solve?strategy=oracle", "text/plain", strings.NewReader(sampleInstance))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown strategy") {
		t.Fatalf("status %d body %q, want 400 unknown strategy", resp.StatusCode, body)
	}

	roots := 0
	for _, sp := range drainSpans(t, ts, "") {
		if sp.Name == "cspd.solve" {
			roots++
			if sp.EndNs < sp.StartNs {
				t.Fatalf("root span not properly ended: %+v", sp)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("root span recorded %d times, want exactly 1 (End called once)", roots)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("rejected request created %d cache entries", n)
	}
	if d := obsExecuted.Load() - executedBefore; d != 0 {
		t.Fatalf("rejected request ran the engine %d times", d)
	}
}

// TestSolveRejectsNonPOST pins the 405 path: every non-POST method gets
// 405 with an Allow header, before the body is read.
func TestSolveRejectsNonPOST(t *testing.T) {
	ts, _ := startDaemon(t)
	for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete, http.MethodHead} {
		req, err := http.NewRequest(method, ts.URL+"/solve", strings.NewReader(sampleInstance))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s /solve: status %d, want 405", method, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("%s /solve: Allow header %q, want POST", method, allow)
		}
	}
}

// TestSolveRejectsOversizedBody pins the 413 path: a body over the POST
// limit gets a distinct status, error body, and counter — not a 400 parse
// error.
func TestSolveRejectsOversizedBody(t *testing.T) {
	ts, _ := startDaemon(t)
	tooBigBefore := obsTooLarge.Load()

	huge := strings.Repeat("#", maxBodyBytes+2)
	resp, err := http.Post(ts.URL+"/solve", "text/plain", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d (%s), want 413", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "body too large") {
		t.Fatalf("413 body %q does not name the problem", body)
	}
	if d := obsTooLarge.Load() - tooBigBefore; d != 1 {
		t.Fatalf("too_large counter delta = %d, want 1", d)
	}
}

// TestMetricsServeLayer checks that the new serving-layer metrics are
// published and move.
func TestMetricsServeLayer(t *testing.T) {
	ts, _ := startDaemon(t)
	postSolve(t, ts, "strategy=mac", sampleInstance)
	postSolve(t, ts, "strategy=mac", sampleInstance) // cache hit

	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"cspd.solve.executed", "cspd.solve.collapsed", "cspd.solve.too_large",
		"cspd.cache.len", "cspd.admit.shed", "cspd.admit.queue_depth",
		`cspd.admit.wait_ns{outcome="fast"}`,
	} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("/metrics missing %q", key)
		}
	}
	for _, outcome := range []string{"hit", "miss"} {
		key := `cspd.cache.outcome{outcome="` + outcome + `"}`
		if v, ok := snap[key].(float64); !ok || v < 1 {
			t.Fatalf("%s = %v, want >= 1", key, snap[key])
		}
	}
}

// waitForState polls cond until it holds or a deadline passes.
func waitForState(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
