// Command benchjson converts `go test -bench` text output (read from stdin)
// into a labeled JSON trajectory file, merging into an existing file so that
// multiple labeled runs (e.g. the pre-rewrite "before" numbers and the
// current "after" numbers) live side by side and speedups stay auditable.
//
// Usage:
//
//	go test -bench 'Join|Semijoin|Yannakakis|Engine' -benchmem -count 5 ./... |
//	    go run ./cmd/benchjson -o BENCH_relation.json -label after
//
// With -obs the tool additionally runs a canonical chain-join workload
// in-process with the observability registry enabled and embeds the
// resulting metrics snapshot (join/planner counters, the planner's
// estimate-vs-actual error histogram, workload allocation bytes) under the
// label, so planner quality is versioned alongside the timing trajectory.
//
// With -search the tool ignores stdin and instead times the search-core
// engines (seed, bitset MAC, restart/nogood learning, and the default
// portfolio race) in-process on a fixed suite of hard instances —
// pigeonhole, quasigroup completion, Model B at the phase transition, and
// the hard-search family the daemon's Hard route races on — recording
// wall-clock runs, medians, node counts, and seed-relative speedups. The default output switches to
// BENCH_search.json:
//
//	go run ./cmd/benchjson -search -label after
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"csdb/internal/obs"
	"csdb/internal/relation"
)

// Run is one benchmark measurement line.
type Run struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op,omitempty"`
	AllocsOp float64 `json:"allocs_op,omitempty"`
}

// Bench aggregates the -count repetitions of one benchmark.
type Bench struct {
	Runs           []Run   `json:"runs"`
	MedianNsOp     float64 `json:"median_ns_op"`
	MedianBOp      float64 `json:"median_b_op"`
	MedianAllocsOp float64 `json:"median_allocs_op"`
}

// Label is one labeled capture: a full benchmark sweep at a point in time,
// optionally with an observability snapshot of the canonical workload.
type Label struct {
	GeneratedAt string           `json:"generated_at"`
	GoVersion   string           `json:"go_version"`
	Benchmarks  map[string]Bench `json:"benchmarks"`
	Obs         map[string]any   `json:"obs,omitempty"`
}

// File is the on-disk trajectory format.
type File struct {
	Note   string           `json:"note"`
	Labels map[string]Label `json:"labels"`
}

func main() {
	out := flag.String("o", "BENCH_relation.json", "output JSON file (merged in place)")
	label := flag.String("label", "current", "label for this capture (e.g. before, after)")
	withObs := flag.Bool("obs", false, "embed a metrics snapshot of the canonical chain-join workload")
	search := flag.Bool("search", false, "time the search-core engine suite in-process instead of reading stdin")
	note := flag.String("note", "", "override the file's note line (kept from the existing file when empty)")
	flag.Parse()

	var runs map[string][]Run
	var searchBenches map[string]Bench
	var searchSnap map[string]any
	if *search {
		// The search suite produces its own timings; -o keeps its flag
		// default only if the user did not set it explicitly.
		explicitOut := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "o" {
				explicitOut = true
			}
		})
		if !explicitOut {
			*out = "BENCH_search.json"
		}
		searchBenches, searchSnap = runSearchBench()
	} else {
		runs = parseBench(os.Stdin)
		if len(runs) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
			os.Exit(1)
		}
	}

	f := File{Labels: map[string]Label{}}
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: cannot parse existing %s: %v\n", *out, err)
			os.Exit(1)
		}
		if f.Labels == nil {
			f.Labels = map[string]Label{}
		}
	}
	switch {
	case *note != "":
		f.Note = *note
	case f.Note == "" && *search:
		f.Note = "search-core wall-clock per (instance or family, engine): seed vs bitset MAC vs restart/nogood learning vs the portfolio race; medians plus node counts and seed-relative speedups"
	case f.Note == "":
		f.Note = "per-benchmark ns/op, B/op, allocs/op across -count repetitions; medians for comparison"
	}

	// Merge into the label if it already exists: a capture of a subset of
	// benchmarks (e.g. a backfilled baseline for one new benchmark) updates
	// those entries and leaves the rest of the label intact.
	benches := map[string]Bench{}
	if prev, ok := f.Labels[*label]; ok {
		for name, b := range prev.Benchmarks {
			benches[name] = b
		}
	}
	for name, rs := range runs {
		benches[name] = Bench{
			Runs:           rs,
			MedianNsOp:     median(rs, func(r Run) float64 { return r.NsOp }),
			MedianBOp:      median(rs, func(r Run) float64 { return r.BOp }),
			MedianAllocsOp: median(rs, func(r Run) float64 { return r.AllocsOp }),
		}
	}
	for name, b := range searchBenches {
		benches[name] = b
	}
	obsSnap := f.Labels[*label].Obs // keep an earlier snapshot unless replaced
	if *withObs {
		obsSnap = captureObsSnapshot()
	}
	if searchSnap != nil {
		obsSnap = searchSnap
	}
	f.Labels[*label] = Label{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Benchmarks:  benches,
		Obs:         obsSnap,
	}

	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks under label %q to %s\n", len(benches), *label, *out)
}

// captureObsSnapshot runs the canonical chain-join workload (the shape
// behind BenchmarkJoinAllChain) with metrics on and returns the relation.*
// slice of the registry snapshot plus the workload's allocation bytes.
func captureObsSnapshot() map[string]any {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	const k, rows, dom = 8, 20000, 20000
	rels := make([]*relation.Relation, k)
	for i := range rels {
		a, b := fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)
		r := relation.MustNew(a, b)
		for j := 0; j < rows; j++ {
			// The multiplicative stride makes join keys well spread without
			// pulling in a PRNG, matching the benchmark's density profile.
			r.MustAdd(relation.Tuple{(j*2654435761 + i) % dom, (j*40503 + 7*i) % dom})
		}
		rels[i] = r
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out := relation.JoinAll(rels)
	runtime.ReadMemStats(&after)

	snap := map[string]any{
		"workload":             fmt.Sprintf("chain k=%d rows=%d dom=%d", k, rows, dom),
		"workload.out_rows":    out.Len(),
		"workload.alloc_bytes": after.TotalAlloc - before.TotalAlloc,
	}
	for name, v := range obs.DefaultRegistry().Snapshot() {
		if strings.HasPrefix(name, "relation.") {
			snap[name] = v
		}
	}
	return snap
}

// parseBench extracts benchmark result lines of the form
//
//	BenchmarkName-8   100   11118273 ns/op   5118342 B/op   120034 allocs/op
func parseBench(src *os.File) map[string][]Run {
	runs := make(map[string][]Run)
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		var r Run
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsOp = v
				ok = true
			case "B/op":
				r.BOp = v
			case "allocs/op":
				r.AllocsOp = v
			}
		}
		if ok {
			runs[name] = append(runs[name], r)
		}
	}
	return runs
}

func median(rs []Run, get func(Run) float64) float64 {
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = get(r)
	}
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
