package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csdb/internal/dispatch"
	"csdb/internal/obs"
)

// runOut runs csolve with cfg and returns what it printed.
func runOut(t *testing.T, cfg config) string {
	t.Helper()
	var b strings.Builder
	if err := run(&b, cfg); err != nil {
		t.Fatalf("run %+v: %v", cfg, err)
	}
	return b.String()
}

// -strategy takes exactly the strategy table's names; the retired forced
// routes, the removed parallel and join rows and other spellings are
// rejected.
func TestParseStrategy(t *testing.T) {
	sample := []string{"../../testdata/sample.csp"}
	for _, name := range dispatch.Names() {
		if got := runOut(t, config{strategy: name, args: sample}); !strings.HasPrefix(got, "SAT (strategy="+name+",") {
			t.Fatalf("strategy %s: output %q", name, got)
		}
	}
	for _, name := range []string{"search", "treewidth", "schaefer", "tree", "parallel", "join", "quantum"} {
		if err := run(io.Discard, config{strategy: name, args: sample}); err == nil ||
			!strings.Contains(err.Error(), "unknown strategy") {
			t.Fatalf("strategy %q: err = %v", name, err)
		}
	}
}

func TestRunOnInstanceFile(t *testing.T) {
	sample := []string{"../../testdata/sample.csp"}
	if err := run(io.Discard, config{strategy: "auto", explain: true, args: sample}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := runOut(t, config{strategy: "mac", all: 3, args: sample}); !strings.HasSuffix(got, "2 solution(s)\n") {
		t.Fatalf("run -all: output %q", got)
	}
	if got := runOut(t, config{strategy: "auto", count: true, args: sample}); got != "2 solution(s)\n" {
		t.Fatalf("run -count: output %q", got)
	}
}

// -timeout is only the deadline of the requested strategy: the summary
// names that strategy with and without it, and -explain works with every
// strategy.
func TestRunEngineFlags(t *testing.T) {
	sample := []string{"../../testdata/sample.csp"}
	for _, name := range dispatch.Names() {
		for _, timeout := range []time.Duration{0, 5 * time.Second} {
			got := runOut(t, config{strategy: name, explain: true, timeout: timeout, args: sample})
			lines := strings.Split(got, "\n")
			if len(lines) < 2 || !strings.HasPrefix(lines[0], "explain: ") ||
				!strings.HasPrefix(lines[1], "SAT (strategy="+name+",") {
				t.Fatalf("strategy %s, timeout %v: output %q", name, timeout, got)
			}
		}
	}
	if got := runOut(t, config{strategy: "mac", timeout: 2 * time.Second, args: sample}); !strings.Contains(got, "engine MAC+MRV") {
		t.Fatalf("-strategy mac -timeout: output %q", got)
	}
}

// TestRunTraceFlag solves with -trace and checks the written JSONL: at
// least the csolve root and a csp.solve span parented under it, all on the
// csolve trace id.
func TestRunTraceFlag(t *testing.T) {
	prevEnabled, prevTracing := obs.Enabled(), obs.Tracing()
	defer func() {
		obs.DefaultTracer().Drain()
		obs.SetEnabled(prevEnabled)
		obs.SetTracing(prevTracing)
	}()

	out := filepath.Join(t.TempDir(), "trace.jsonl")
	cfg := config{
		strategy: "mac", timeout: 5 * time.Second, trace: out,
		args: []string{"../../testdata/sample.csp"},
	}
	if err := run(io.Discard, cfg); err != nil {
		t.Fatalf("run -trace: %v", err)
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	defer f.Close()
	var rootID uint64
	var spans []obs.SpanRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if rec.TraceID != "csolve-1" {
			t.Fatalf("span %q has trace %q, want csolve-1", rec.Name, rec.TraceID)
		}
		if rec.Name == "csolve" {
			rootID = rec.ID
		}
		spans = append(spans, rec)
	}
	if rootID == 0 {
		t.Fatalf("no csolve root span among %d spans", len(spans))
	}
	foundSolve := false
	for _, rec := range spans {
		if rec.Name == "csp.solve" && rec.Parent == rootID {
			foundSolve = true
		}
	}
	if !foundSolve {
		t.Fatalf("no csp.solve span parented under the csolve root (%d spans)", len(spans))
	}
}

func TestRunOnDIMACS(t *testing.T) {
	triangle := []string{"../../testdata/triangle.col"}
	if got := runOut(t, config{strategy: "auto", coloring: 3, args: triangle}); !strings.HasPrefix(got, "SAT ") {
		t.Fatalf("3-coloring: %q", got)
	}
	if got := runOut(t, config{strategy: "mac", coloring: 2, args: triangle}); !strings.HasPrefix(got, "UNSAT ") {
		t.Fatalf("2-coloring (UNSAT path): %q", got)
	}
	if got := runOut(t, config{strategy: "portfolio", coloring: 3, args: triangle}); !strings.Contains(got, "portfolio winner") {
		t.Fatalf("3-coloring -strategy portfolio: %q", got)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, config{strategy: "auto", args: []string{"/nonexistent/file"}}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run(io.Discard, config{strategy: "auto", args: []string{"a", "b"}}); err == nil {
		t.Fatal("two files accepted")
	}
	if err := run(io.Discard, config{strategy: "bogus", args: []string{"../../testdata/sample.csp"}}); err == nil {
		t.Fatal("bad strategy accepted")
	}
}

// TestRunEventsFlag solves with -events and checks the written JSONL: one
// wide event on the csolve trace id, carrying the verdict and the engine's
// effort accounting. Combined with -trace, the event's trace_id matches the
// root span's, so the two files cross-link.
func TestRunEventsFlag(t *testing.T) {
	prevEnabled, prevTracing, prevEvents := obs.Enabled(), obs.Tracing(), obs.EventsActive()
	defer func() {
		obs.DefaultTracer().Drain()
		obs.DefaultEvents().Drain()
		obs.SetEnabled(prevEnabled)
		obs.SetTracing(prevTracing)
		obs.SetEvents(prevEvents)
	}()

	dir := t.TempDir()
	evOut := filepath.Join(dir, "events.jsonl")
	trOut := filepath.Join(dir, "trace.jsonl")
	cfg := config{
		strategy: "auto", events: evOut, trace: trOut,
		args: []string{"../../testdata/sample.csp"},
	}
	if err := run(io.Discard, cfg); err != nil {
		t.Fatalf("run -events: %v", err)
	}

	data, err := os.ReadFile(evOut)
	if err != nil {
		t.Fatalf("events file not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d events, want exactly 1", len(lines))
	}
	var ev obs.SolveEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("bad event line %q: %v", lines[0], err)
	}
	if ev.TraceID != "csolve-1" || ev.Source != "csolve" {
		t.Fatalf("event identity = (%q, %q), want (csolve-1, csolve)", ev.TraceID, ev.Source)
	}
	if ev.Strategy != "auto" || ev.Route == "" {
		t.Fatalf("event routing = (strategy %q, route %q), want auto with a route", ev.Strategy, ev.Route)
	}
	if ev.Verdict != obs.VerdictSat {
		t.Fatalf("verdict = %q, want sat for the satisfiable sample", ev.Verdict)
	}
	if ev.TsNs == 0 {
		t.Fatal("event has no timestamp")
	}

	// Cross-link: the -trace file's root span carries the same trace id.
	tr, err := os.ReadFile(trOut)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var rec obs.SpanRecord
	if err := json.Unmarshal([]byte(strings.SplitN(strings.TrimSpace(string(tr)), "\n", 2)[0]), &rec); err != nil {
		t.Fatalf("bad trace line: %v", err)
	}
	if rec.TraceID != ev.TraceID {
		t.Fatalf("trace id mismatch: span %q vs event %q", rec.TraceID, ev.TraceID)
	}
}
