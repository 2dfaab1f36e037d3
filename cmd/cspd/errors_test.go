package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestSolveRejectsHostileParams extends the bad-input coverage with the
// boundary cases: zero and negative timeouts, an unknown strategy and the
// names of the removed parallel and join rows, an empty body, and a body
// that parses structurally but truncates a tuple.
// Each must produce 400 with a diagnostic body, never 500 or a hang.
func TestSolveRejectsHostileParams(t *testing.T) {
	ts, _ := startDaemon(t)
	for _, tc := range []struct {
		name, query, body, wantIn string
	}{
		{"negative timeout", "timeout=-5s", sampleInstance, "bad timeout"},
		{"zero timeout", "timeout=0s", sampleInstance, "bad timeout"},
		{"non-duration timeout", "timeout=5", sampleInstance, "bad timeout"},
		{"unknown strategy", "strategy=oracle", sampleInstance, "unknown strategy"},
		{"removed parallel", "strategy=parallel", sampleInstance, "unknown strategy"},
		{"removed join", "strategy=join", sampleInstance, "unknown strategy"},
		{"empty body", "", "", "parse"},
		{"truncated tuple", "", "vars 2\ndom 2\ncon 0 1 : 0\n", "parse"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/solve?"+tc.query, "text/plain", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body: %s)", resp.StatusCode, msg)
			}
			if !strings.Contains(string(msg), tc.wantIn) {
				t.Errorf("error body %q does not mention %q", msg, tc.wantIn)
			}
		})
	}
}

// TestSolveIgnoresWorkers pins that workers=, the bound of the removed
// parallel row, is now an unknown parameter like any other: whatever its
// value and whatever the strategy, the request is answered, and from the
// result cache entry of the same request without it, so it never splits
// the cache.
func TestSolveIgnoresWorkers(t *testing.T) {
	ts, _ := startDaemon(t)
	for _, tc := range []struct{ name, base, workers string }{
		{"non-numeric workers", "", "workers=banana"},
		{"workers with learn", "strategy=learn", "workers=2"},
		{"workers with mac", "strategy=mac", "workers=3"},
		{"workers with route=auto", "route=auto", "workers=2"},
		{"workers with default portfolio", "", "workers=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := postSolve(t, ts, tc.base, sampleInstance)
			got := postSolve(t, ts, strings.TrimPrefix(tc.base+"&"+tc.workers, "&"), sampleInstance)
			if !got.Cached || got.Found != want.Found || got.Strategy != want.Strategy {
				t.Fatalf("?%s&%s: cached=%v found=%v strategy %q; want the cached answer of ?%s (found=%v, strategy %q)",
					tc.base, tc.workers, got.Cached, got.Found, got.Strategy, tc.base, want.Found, want.Strategy)
			}
		})
	}
}
