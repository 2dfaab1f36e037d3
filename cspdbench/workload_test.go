package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"csdb/internal/cspio"
	"csdb/internal/dispatch"
)

// bodies flattens a workload into its request bodies in send order:
// warm-up first, then each stream.
func bodies(w *workload) [][]byte {
	var out [][]byte
	for _, r := range w.warm {
		out = append(out, r.body)
	}
	for _, s := range w.streams {
		for _, r := range s {
			out = append(out, r.body)
		}
	}
	return out
}

func TestWorkloadsByteIdenticalPerSeed(t *testing.T) {
	for _, sp := range specs {
		a, err := buildWorkload(sp.name, 7, 24)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(sp.name, 7, 24)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildWorkload(sp.name, 8, 24)
		if err != nil {
			t.Fatal(err)
		}
		ba, bb, bc := bodies(a), bodies(b), bodies(c)
		if len(ba) != len(bb) {
			t.Fatalf("%s: %d vs %d requests for one seed", sp.name, len(ba), len(bb))
		}
		same := true
		for i := range ba {
			if !bytes.Equal(ba[i], bb[i]) {
				t.Fatalf("%s: request %d differs between two builds with seed 7", sp.name, i)
			}
			same = same && i < len(bc) && bytes.Equal(ba[i], bc[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give the same requests", sp.name)
		}
	}
}

// TestFreshRequestsAreDistinct: on the cold workloads no two requests of a
// run (warm-up included) share a canonical hash, so no cache can hit.
func TestFreshRequestsAreDistinct(t *testing.T) {
	for _, name := range []string{"cold-auto", "hard-search", "mixed-queue"} {
		w, err := buildWorkload(name, 3, 40)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for _, b := range bodies(w) {
			p, err := cspio.Parse(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			h := cspio.CanonicalHash(p)
			if seen[h] {
				t.Fatalf("%s: two requests share canonical hash %x", name, h)
			}
			seen[h] = true
		}
	}
}

// TestFamiliesClassifyAsDesigned checks the construction arguments in
// newInstance against the dispatcher itself, from the rendered bodies.
func TestFamiliesClassifyAsDesigned(t *testing.T) {
	w, err := buildWorkload("mixed-queue", 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	a := dispatch.NewAnalyzer(0, 0)
	counts := map[string]int{}
	for _, s := range w.streams {
		for _, r := range s {
			p, err := cspio.Parse(bytes.NewReader(r.body))
			if err != nil {
				t.Fatal(err)
			}
			cls, _ := a.Classify(p)
			if got := cls.Class.String(); got != r.class {
				t.Errorf("%s-family instance classified %s", r.class, got)
			}
			counts[r.class]++
		}
	}
	for _, c := range ptimeClasses {
		if counts[c] != 10 {
			t.Errorf("%d %s requests in 40 cheap ones, want 10", counts[c], c)
		}
	}
}

func TestHitWarmWorkingSetFitsCache(t *testing.T) {
	w, err := buildWorkload("hit-warm", 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.warm) > cacheEntries {
		t.Fatalf("working set %d exceeds the %d-entry cache", len(w.warm), cacheEntries)
	}
	inSet := map[*request]bool{}
	for _, r := range w.warm {
		inSet[r] = true
	}
	freq := map[*request]int{}
	for _, r := range w.streams[0] {
		if !inSet[r] {
			t.Fatal("a timed request is outside the working set")
		}
		freq[r]++
	}
	if freq[w.warm[0]] <= freq[w.warm[len(w.warm)-1]] {
		t.Error("Zipf draw is not skewed towards the first entries")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the code in
// step: the same workloads and the same metric names and units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	listed := listedSpecs()
	if len(bj.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bj.Workloads), len(listed))
	}
	for i, w := range bj.Workloads {
		if w.Name != listed[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, listed[i].name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code prints %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, e := range bj.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], code %s [%s]", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code prints %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, l := range bj.PerLayer {
		lm := layerMetrics[i]
		if l.Name != lm.name || l.Unit != lm.unit || l.Better != lm.better {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s, %s], code %s [%s, %s]", i, l.Name, l.Unit, l.Better, lm.name, lm.unit, lm.better)
		}
	}
}
