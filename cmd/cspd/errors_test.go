package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestSolveRejectsHostileParams extends the bad-input coverage with the
// boundary cases: zero and negative timeouts, non-numeric workers, a worker
// bound on a strategy that ignores it (which would otherwise split the
// result cache), an empty body, and a body that parses structurally but
// truncates a tuple.
// Each must produce 400 with a diagnostic body, never 500 or a hang.
func TestSolveRejectsHostileParams(t *testing.T) {
	ts, _ := startDaemon(t)
	for _, tc := range []struct {
		name, query, body, wantIn string
	}{
		{"negative timeout", "timeout=-5s", sampleInstance, "bad timeout"},
		{"zero timeout", "timeout=0s", sampleInstance, "bad timeout"},
		{"non-duration timeout", "timeout=5", sampleInstance, "bad timeout"},
		{"non-numeric workers", "workers=banana", sampleInstance, "bad workers"},
		{"unknown strategy", "strategy=oracle", sampleInstance, "unknown strategy"},
		{"workers with learn", "strategy=learn&workers=2", sampleInstance, "conflicting workers"},
		{"workers with mac", "strategy=mac&workers=3", sampleInstance, "conflicting workers"},
		{"workers with route=auto", "route=auto&workers=2", sampleInstance, "conflicting workers"},
		{"workers with default portfolio", "workers=1", sampleInstance, "conflicting workers"},
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
