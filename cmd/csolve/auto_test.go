package main

import (
	"strings"
	"testing"
	"time"

	"csdb/internal/dispatch"
)

// -strategy auto routes by structure and says so. The fixture is an
// ear-grown acyclic instance whose primal graph exceeds the width budget:
// csolve once searched it with MAC and explained "treewidth above
// threshold" while cspd routed the same file acyclic.
func TestRunAutoFlag(t *testing.T) {
	wide := []string{"../../testdata/acyclic_wide.csp"}
	for _, timeout := range []time.Duration{0, 5 * time.Second} {
		got := runOut(t, config{strategy: "auto", explain: true, timeout: timeout, args: wide})
		for _, want := range []string{"explain: route acyclic: ", "SAT (strategy=auto, route=acyclic, classify "} {
			if !strings.Contains(got, want) {
				t.Fatalf("timeout %v: output %q lacks %q", timeout, got, want)
			}
		}
	}
}

// The auto summary must always report the route and the classification
// time, and name the portfolio winner only on fallback.
func TestAutoDetail(t *testing.T) {
	acyclic := dispatch.Classification{Class: dispatch.Acyclic}
	out := dispatch.Outcome{Strategy: "auto", Classification: &acyclic, Route: dispatch.Acyclic,
		ClassifyTime: 1500 * time.Microsecond}
	got := summary(out, time.Millisecond)
	if !strings.Contains(got, "route=acyclic") || !strings.Contains(got, "classify 1.5ms") {
		t.Fatalf("summary %q missing route or classify time", got)
	}
	if strings.Contains(got, "portfolio winner") {
		t.Fatalf("summary %q names a winner without fallback", got)
	}
	hard := dispatch.Classification{Class: dispatch.Hard}
	out = dispatch.Outcome{Strategy: "auto", Classification: &hard, Route: dispatch.Hard,
		Fallback: true, Winner: "mac"}
	if got := summary(out, time.Millisecond); !strings.Contains(got, "route=hard") ||
		!strings.Contains(got, "portfolio winner mac") {
		t.Fatalf("fallback summary %q missing route or winner", got)
	}
	// An engine row has no classification and must not print a route, even
	// though Outcome.Route's zero value is Tree.
	if got := summary(dispatch.Outcome{Strategy: "mac"}, time.Millisecond); strings.Contains(got, "route=") {
		t.Fatalf("engine summary %q reports a route", got)
	}
}
