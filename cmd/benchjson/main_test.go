package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestMergeLeavesOtherLabelsUnchanged merges a capture into a file whose
// one label holds an obs block in hand order (not the sorted order a Go map
// marshals to): the block, and the whole label, must come back byte for
// byte, while the new label holds the capture.
func TestMergeLeavesOtherLabelsUnchanged(t *testing.T) {
	old := `    "old": {
      "generated_at": "2026-01-01T00:00:00Z",
      "go_version": "go1.0",
      "benchmarks": {
        "BenchmarkA-2": {
          "runs": [
            {
              "ns_op": 1.50
            }
          ],
          "median_ns_op": 1.50,
          "median_b_op": 0,
          "median_allocs_op": 0
        }
      },
      "obs": {
        "relation.planner.est_ratio": {
          "sum": 3,
          "count": 2,
          "buckets": [
            1,
            1
          ]
        },
        "relation.join.calls": 7
      }
    }`
	file := "{\n  \"note\": \"n\",\n  \"labels\": {\n" + old + "\n  }\n}\n"
	rs := []Run{{NsOp: 10}, {NsOp: 30}, {NsOp: 20}}
	got, n, err := merge([]byte(file), capture{label: "new", benches: map[string]Bench{
		"BenchmarkB-2": {Runs: rs, MedianNsOp: median(rs, func(r Run) float64 { return r.NsOp })},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("merge reports %d benchmarks under the new label, want 1", n)
	}
	if !strings.Contains(string(got), old) {
		t.Fatalf("the untouched label changed:\n%s", got)
	}
	var f struct {
		Note   string           `json:"note"`
		Labels map[string]Label `json:"labels"`
	}
	if err := json.Unmarshal(got, &f); err != nil {
		t.Fatal(err)
	}
	if f.Note != "n" || len(f.Labels) != 2 {
		t.Fatalf("note %q, %d labels; want the old note and two labels", f.Note, len(f.Labels))
	}
	if b := f.Labels["new"].Benchmarks["BenchmarkB-2"]; len(b.Runs) != 3 || b.MedianNsOp != 20 {
		t.Fatalf("new label holds %+v", b)
	}

	// A second capture under the same label adds to it and keeps the rest.
	got, n, err = merge(got, capture{label: "new", benches: map[string]Bench{"BenchmarkC-2": {MedianNsOp: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || !strings.Contains(string(got), old) {
		t.Fatalf("second merge: %d benchmarks under the label, old label kept = %v", n, strings.Contains(string(got), old))
	}
}
