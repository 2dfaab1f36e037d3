package dispatch

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/gen"
)

// Every table row decides the same instances the same way, and only auto
// reports a route.
func TestRunEveryStrategyAgrees(t *testing.T) {
	a := NewAnalyzer(0, 0)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		p := gen.ModelB(rng, 5+rng.Intn(3), 3, 0.6, 0.4)
		want := csp.SolveSeed(p, csp.Options{}).Found
		for _, name := range Names() {
			out, err := a.Run(context.Background(), p, name)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if out.Found != want || out.Aborted {
				t.Fatalf("trial %d %s: found=%v aborted=%v, want %v", trial, name, out.Found, out.Aborted, want)
			}
			if out.Found && !p.Satisfies(out.Solution) {
				t.Fatalf("trial %d %s: invalid solution", trial, name)
			}
			if out.Strategy != name {
				t.Fatalf("trial %d: Run(%s) reports strategy %q", trial, name, out.Strategy)
			}
			if routed := out.RouteName() != ""; routed != (name == "auto") {
				t.Fatalf("trial %d %s: route %q", trial, name, out.RouteName())
			}
		}
	}
}

func TestCheckRejectsBadRequests(t *testing.T) {
	for _, tc := range []struct {
		name    string
		wantErr string
	}{
		{"mac", ""},
		{"auto", ""},
		{"quantum", "unknown strategy"},
		{"", "unknown strategy"},
		// Rows the table no longer serves are unknown like any other name.
		{"parallel", "unknown strategy"},
		{"join", "unknown strategy"},
	} {
		err := Check(tc.name)
		if tc.wantErr == "" {
			if err != nil {
				t.Fatalf("Check(%q) = %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("Check(%q) = %v, want %q", tc.name, err, tc.wantErr)
		}
		if _, err := NewAnalyzer(0, 0).Run(context.Background(), csp.NewInstance(1, 1), tc.name); err == nil {
			t.Fatalf("Run(%q) accepted what Check rejects", tc.name)
		}
	}
}

// The metric label set and the help text both cover exactly the table.
func TestStrategyLabelAndHelpCoverTable(t *testing.T) {
	help := Help()
	for _, name := range Names() {
		if got := StrategyLabel(name); got != name {
			t.Fatalf("StrategyLabel(%q) = %q", name, got)
		}
		if !strings.Contains(help, "  "+name+" ") {
			t.Fatalf("help lacks %q:\n%s", name, help)
		}
	}
	if StrategyLabel("") != "none" || StrategyLabel("quantum") != "other" {
		t.Fatal("StrategyLabel does not close the label set")
	}
	// The removed rows mint no series of their own.
	for _, gone := range []string{"parallel", "join"} {
		if got := StrategyLabel(gone); got != "other" {
			t.Fatalf("StrategyLabel(%q) = %q, want other", gone, got)
		}
		if strings.Contains(help, "  "+gone+" ") {
			t.Fatalf("help still lists %q:\n%s", gone, help)
		}
	}
}

// Explain is rendered from the routing classification, or from the engine
// row when structure was not consulted.
func TestOutcomeExplain(t *testing.T) {
	a := NewAnalyzer(0, 0)
	tree := gen.CSPOnGraph(rand.New(rand.NewSource(1)), gen.RandomTree(rand.New(rand.NewSource(2)), 6), 3, 0.2)
	out, err := a.Run(context.Background(), tree, "auto")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Explain(); !strings.HasPrefix(got, "route tree: ") {
		t.Fatalf("auto explain = %q", got)
	}
	out, err = a.Run(context.Background(), tree, "cbj")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Explain(); !strings.Contains(got, "strategy cbj") || !strings.Contains(got, "not consulted") {
		t.Fatalf("engine explain = %q", got)
	}
	rerouted := Outcome{Classification: &Classification{Class: Acyclic}, Route: Hard}
	if got := rerouted.Explain(); !strings.Contains(got, "route acyclic") || !strings.Contains(got, "portfolio decided") {
		t.Fatalf("reroute explain = %q", got)
	}
}
