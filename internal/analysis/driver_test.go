package analysis

import (
	"strings"
	"testing"
)

// TestLoadClosure checks the loader's contract on the fixture load: targets
// are exactly the pattern-matched packages, the dependency closure includes
// the standard library and the module's own packages, and type information
// is populated.
func TestLoadClosure(t *testing.T) {
	loaded := loadTestdata(t)

	if len(loaded.Targets) != 10 {
		var names []string
		for _, p := range loaded.Targets {
			names = append(names, p.Path)
		}
		t.Fatalf("want 10 fixture targets, got %d: %v", len(loaded.Targets), names)
	}
	for _, p := range loaded.Targets {
		if !p.Target {
			t.Errorf("%s: Target flag not set", p.Path)
		}
		if p.Standard {
			t.Errorf("%s: fixture marked Standard", p.Path)
		}
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("%s: missing type info or files", p.Path)
		}
		if !strings.Contains(p.Path, "testdata/src/") {
			t.Errorf("unexpected target %s", p.Path)
		}
	}

	// The closure pulls in both standard-library and module dependencies,
	// type-checked but not targeted.
	for _, dep := range []string{"context", "sync/atomic", "csdb/internal/relation", "csdb/internal/obs"} {
		p := loaded.All[dep]
		if p == nil {
			t.Errorf("dependency %s missing from closure", dep)
			continue
		}
		if p.Target {
			t.Errorf("dependency %s marked as target", dep)
		}
		if p.Types == nil {
			t.Errorf("dependency %s not type-checked", dep)
		}
	}
	if p := loaded.All["context"]; p != nil && !p.Standard {
		t.Error("context not marked Standard")
	}
}

// TestLoadErrors covers the loader's failure modes: a pattern that matches
// nothing resolvable and a directory that is not a module.
func TestLoadErrors(t *testing.T) {
	if _, err := Load(".", "./no/such/dir/..."); err == nil {
		t.Error("Load with a bogus pattern succeeded; want error")
	}
	if _, err := Load(t.TempDir(), "./..."); err == nil {
		t.Error("Load outside a module succeeded; want error")
	}
}

// TestRelationSuppressionRegression loads the real relation package, whose
// kernel loops poll their context, and asserts that no analyzer finds
// anything there, suppressed or not: the package needs no //lint:ignore
// directive, so a loop that stops polling fails here even if a directive
// hides it from `make lint`.
func TestRelationSuppressionRegression(t *testing.T) {
	loaded, err := Load(".", "../relation")
	if err != nil {
		t.Fatalf("loading internal/relation: %v", err)
	}
	for _, f := range RunDetailed(loaded, All()) {
		t.Errorf("unexpected finding in internal/relation (suppressed: %v): %s", f.Suppressed, f.Diagnostic)
	}
}

// TestDriverSuppressionRegression runs the suite over this package itself and
// pins the one deliberate suppression: the loader's enqueue in finish() sends
// on the bounded ready channel while holding the mutex (lockorder would flag
// it), which is safe because the buffer holds the whole closure. The finding
// must stay suppressed — and must still be *produced*, so the directive can't
// silently drift away from the send it annotates.
func TestDriverSuppressionRegression(t *testing.T) {
	loaded, err := Load(".", ".")
	if err != nil {
		t.Fatalf("loading internal/analysis: %v", err)
	}
	var suppressed int
	for _, f := range RunDetailed(loaded, All()) {
		if !f.Suppressed {
			t.Errorf("unexpected finding in internal/analysis: %s", f.Diagnostic)
		} else if f.Analyzer == "lockorder" && strings.Contains(f.Message, "channel send") {
			suppressed++
		}
	}
	if suppressed != 1 {
		t.Errorf("want exactly 1 suppressed lockorder send-under-lock finding in the loader, got %d", suppressed)
	}
}
