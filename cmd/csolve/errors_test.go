package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeTempInstance drops body into a temp file and returns its path.
func writeTempInstance(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csp")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunErrorPaths walks the CLI's failure modes: each must surface as an
// error from run (so main exits 2), not a panic or a silent success.
func TestRunErrorPaths(t *testing.T) {
	sample := []string{"../../testdata/sample.csp"}

	t.Run("malformed instance", func(t *testing.T) {
		bad := writeTempInstance(t, "vars banana\ndom 2\n")
		err := run(io.Discard, config{strategy: "auto", args: []string{bad}})
		if err == nil {
			t.Fatal("malformed instance accepted")
		}
	})

	t.Run("truncated constraint", func(t *testing.T) {
		bad := writeTempInstance(t, "vars 2\ndom 2\ncon 0 1 : 0\n")
		if err := run(io.Discard, config{strategy: "auto", args: []string{bad}}); err == nil {
			t.Fatal("constraint with wrong tuple arity accepted")
		}
	})

	t.Run("dom_of value out of range", func(t *testing.T) {
		// The portfolio's lanes used to panic on this instance.
		bad := writeTempInstance(t, "vars 2\ndom 2\ndom_of 0 : 5\ncon 0 1 : 0 1 | 1 0\n")
		err := run(io.Discard, config{strategy: "portfolio", args: []string{bad}})
		if err == nil || !strings.Contains(err.Error(), "dom_of value 5") {
			t.Fatalf("out-of-range dom_of value: err = %v", err)
		}
	})

	t.Run("unknown strategy", func(t *testing.T) {
		err := run(io.Discard, config{strategy: "quantum", args: sample})
		if err == nil || !strings.Contains(err.Error(), "strategy") {
			t.Fatalf("unknown strategy: err = %v", err)
		}
	})

	t.Run("negative timeout", func(t *testing.T) {
		err := run(io.Discard, config{strategy: "auto", timeout: -time.Second, args: sample})
		if err == nil || !strings.Contains(err.Error(), "timeout") {
			t.Fatalf("negative timeout: err = %v", err)
		}
	})

	t.Run("missing input file", func(t *testing.T) {
		if err := run(io.Discard, config{strategy: "auto", args: []string{filepath.Join(t.TempDir(), "absent.csp")}}); err == nil {
			t.Fatal("missing input file accepted")
		}
	})

	t.Run("too many args", func(t *testing.T) {
		if err := run(io.Discard, config{strategy: "auto", args: []string{"a.csp", "b.csp"}}); err == nil {
			t.Fatal("two positional args accepted")
		}
	})

	t.Run("trace file open failure", func(t *testing.T) {
		// The solve itself succeeds; writing the trace to a path inside a
		// nonexistent directory must turn the run into an error.
		badPath := filepath.Join(t.TempDir(), "no", "such", "dir", "trace.jsonl")
		err := run(io.Discard, config{strategy: "auto", trace: badPath, args: sample})
		if err == nil {
			t.Fatal("unwritable trace path accepted")
		}
		if !os.IsNotExist(err) && !strings.Contains(err.Error(), "no such file") {
			t.Fatalf("want file-open error, got %v", err)
		}
	})
}
