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
// resulting metrics snapshot (the relation.jointree.* counters of the
// join-tree run behind JoinAll, workload allocation bytes) under the label,
// so the join's effort is versioned alongside the timing trajectory.
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

// File is the on-disk trajectory format. Each label stays raw JSON: a merge
// decodes and re-encodes only the label it writes, so every other label
// keeps its bytes (and its obs keys their order).
type File struct {
	Note   string                     `json:"note"`
	Labels map[string]json.RawMessage `json:"labels"`
}

func main() {
	out := flag.String("o", "BENCH_relation.json", "output JSON file (merged in place)")
	label := flag.String("label", "current", "label for this capture (e.g. before, after)")
	withObs := flag.Bool("obs", false, "embed a metrics snapshot of the canonical chain-join workload")
	search := flag.Bool("search", false, "time the search-core engine suite in-process instead of reading stdin")
	note := flag.String("note", "", "override the file's note line (kept from the existing file when empty)")
	flag.Parse()

	c := capture{label: *label, note: *note,
		defaultNote: "per-benchmark ns/op, B/op, allocs/op across -count repetitions; medians for comparison"}
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
		c.defaultNote = "search-core wall-clock per (instance or family, engine): seed vs bitset MAC vs restart/nogood learning vs the portfolio race; medians plus node counts and seed-relative speedups"
		c.benches, c.obs = runSearchBench()
	} else {
		runs := parseBench(os.Stdin)
		if len(runs) == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
			os.Exit(1)
		}
		c.benches = map[string]Bench{}
		for name, rs := range runs {
			c.benches[name] = Bench{
				Runs:           rs,
				MedianNsOp:     median(rs, func(r Run) float64 { return r.NsOp }),
				MedianBOp:      median(rs, func(r Run) float64 { return r.BOp }),
				MedianAllocsOp: median(rs, func(r Run) float64 { return r.AllocsOp }),
			}
		}
		if *withObs {
			c.obs = captureObsSnapshot()
		}
	}

	prev, err := os.ReadFile(*out)
	if err != nil && !os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data, n, err := merge(prev, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *out, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks under label %q to %s\n", n, *label, *out)
}

// capture is one labeled run to merge into a trajectory file.
type capture struct {
	label string
	// note replaces the file's note line when set; defaultNote is the note
	// of a file that has none.
	note, defaultNote string
	benches           map[string]Bench
	// obs replaces the label's snapshot when non-nil.
	obs map[string]any
}

// merge folds c into the trajectory file held in data (empty for a new
// file) and returns the new file with the number of benchmarks under c's
// label. If the label exists, c's benchmarks update its entries and leave
// the rest intact (so a capture of a subset, such as a backfilled baseline
// for one new benchmark, adds to the label), and its snapshot stays unless c
// brings one.
func merge(data []byte, c capture) ([]byte, int, error) {
	var f File
	if len(data) > 0 {
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, 0, fmt.Errorf("cannot parse existing file: %v", err)
		}
	}
	if f.Labels == nil {
		f.Labels = map[string]json.RawMessage{}
	}
	switch {
	case c.note != "":
		f.Note = c.note
	case f.Note == "":
		f.Note = c.defaultNote
	}

	var l Label
	if raw, ok := f.Labels[c.label]; ok {
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, 0, fmt.Errorf("cannot parse label %q: %v", c.label, err)
		}
	}
	if l.Benchmarks == nil {
		l.Benchmarks = map[string]Bench{}
	}
	for name, b := range c.benches {
		l.Benchmarks[name] = b
	}
	if c.obs != nil {
		l.Obs = c.obs
	}
	l.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	l.GoVersion = runtime.Version()
	raw, err := json.Marshal(&l)
	if err != nil {
		return nil, 0, err
	}
	f.Labels[c.label] = raw

	out, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return nil, 0, err
	}
	return append(out, '\n'), len(l.Benchmarks), nil
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
