package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"csdb/internal/csp"
	"csdb/internal/gen"
)

// searchReps is how many times each (instance, engine) cell is timed; the
// JSON records every run plus the median, mirroring `go test -bench -count`.
const searchReps = 3

// searchCase is one hard instance, or a family of them, in the search
// benchmark suite. Every generator is seeded, so the suite is the same set
// of instances on every machine and the trajectory file stays comparable
// across captures. A family is timed as one run deciding every member in
// turn; its node counts are summed over the members.
type searchCase struct {
	name  string
	insts []*csp.Instance
}

func searchCases() []searchCase {
	one := func(p *csp.Instance) []*csp.Instance { return []*csp.Instance{p} }
	return []searchCase{
		// Fully symmetric UNSAT: the classic worst case for learning
		// (restarts redo interchangeable subtrees) and the best case for
		// raw per-node propagation speed.
		{"SearchPigeonhole9x8", one(gen.Pigeonhole(9, 8))},
		// Quasigroup completion: structured SAT where conflict-weighted
		// branching collapses the search tree.
		{"SearchQuasigroup18h130", one(gen.Quasigroup(rand.New(rand.NewSource(1)), 18, 130))},
		// Model B at the phase transition, one UNSAT seed and one SAT seed.
		{"SearchPhase35x20d25s1", one(gen.PhaseTransition(rand.New(rand.NewSource(1)), 35, 20, 0.25))},
		{"SearchPhase35x20d25s2", one(gen.PhaseTransition(rand.New(rand.NewSource(2)), 35, 20, 0.25))},
		// The cspdbench hard-search family (20 variables, 10 values,
		// density 0.3), which the daemon's Hard route races the portfolio
		// on. A member takes MAC about half a millisecond, so the case
		// decides 50 seeded members per run.
		{"SearchHard20x10d30x50", hardSearchFamily(50)},
	}
}

func hardSearchFamily(n int) []*csp.Instance {
	rng := rand.New(rand.NewSource(1))
	insts := make([]*csp.Instance, n)
	for i := range insts {
		insts[i] = gen.PhaseTransition(rng, 20, 10, 0.3)
	}
	return insts
}

// searchEngines are the engines the search core is measured across: the
// retained seed solver (the "before"), the bitset MAC engine, the
// restart/nogood learning engine, and the default portfolio race (MAC+MRV,
// CBJ and Learn on goroutines), whose time shows what the race costs over
// its winner. The portfolio's node count sums every lane's effort, winners
// and losers alike, so it varies from run to run.
var searchEngines = []struct {
	name  string
	solve func(*csp.Instance) csp.Result
}{
	{"seed", func(p *csp.Instance) csp.Result {
		return csp.SolveSeed(p, csp.Options{Algorithm: csp.MAC, VarOrder: csp.MRV})
	}},
	{"bitset", func(p *csp.Instance) csp.Result {
		return csp.Solve(p, csp.Options{Algorithm: csp.MAC, VarOrder: csp.MRV})
	}},
	{"learn", func(p *csp.Instance) csp.Result {
		return csp.Solve(p, csp.Options{Learn: true})
	}},
	{"portfolio", func(p *csp.Instance) csp.Result {
		pres := csp.Portfolio(context.Background(), p, csp.PortfolioOptions{})
		pres.Result.Stats.Nodes = pres.Total.Nodes
		return pres.Result
	}},
}

// runSearchBench times every engine on every case in-process and returns
// benchjson-shaped results: one Bench per "Case/engine" name, plus a summary
// snapshot (node counts, verdicts, seed-relative speedups) for the label's
// obs field. Engines must agree on every verdict — a mismatch is a
// correctness bug, and the tool exits nonzero rather than record it.
func runSearchBench() (map[string]Bench, map[string]any) {
	benches := map[string]Bench{}
	snap := map[string]any{
		"suite": fmt.Sprintf("%d cases x %d engines x %d reps", len(searchCases()), len(searchEngines), searchReps),
	}
	for _, c := range searchCases() {
		verdicts := make([][]bool, len(searchEngines))
		medians := make([]float64, len(searchEngines))
		for ei, eng := range searchEngines {
			var runs []Run
			var found []bool
			var nodes, restarts, nogoods int64
			for r := 0; r < searchReps; r++ {
				found, nodes, restarts, nogoods = found[:0], 0, 0, 0
				t0 := time.Now()
				for _, p := range c.insts {
					res := eng.solve(p)
					if res.Aborted {
						fmt.Fprintf(os.Stderr, "benchjson: %s/%s aborted\n", c.name, eng.name)
						os.Exit(1)
					}
					found = append(found, res.Found)
					nodes += res.Stats.Nodes
					restarts += res.Stats.Restarts
					nogoods += res.Stats.NogoodsRecorded
				}
				runs = append(runs, Run{NsOp: float64(time.Since(t0).Nanoseconds())})
			}
			verdicts[ei] = found
			b := Bench{
				Runs:       runs,
				MedianNsOp: median(runs, func(r Run) float64 { return r.NsOp }),
			}
			medians[ei] = b.MedianNsOp
			benches[c.name+"/"+eng.name] = b
			snap[c.name+".nodes."+eng.name] = nodes
			if eng.name == "learn" {
				snap[c.name+".restarts"] = restarts
				snap[c.name+".nogoods"] = nogoods
			}
			fmt.Fprintf(os.Stderr, "benchjson: %-24s %-9s median %12v nodes %d sat %d/%d\n",
				c.name, eng.name, time.Duration(b.MedianNsOp).Round(time.Microsecond), nodes, countTrue(found), len(found))
		}
		for ei := 1; ei < len(searchEngines); ei++ {
			for i, v := range verdicts[ei] {
				if v != verdicts[0][i] {
					fmt.Fprintf(os.Stderr, "benchjson: VERDICT MISMATCH on %s member %d: %s=%v %s=%v\n",
						c.name, i, searchEngines[0].name, verdicts[0][i], searchEngines[ei].name, v)
					os.Exit(1)
				}
			}
			snap[c.name+".speedup."+searchEngines[ei].name] = round2(medians[0] / medians[ei])
		}
		if len(c.insts) == 1 {
			snap[c.name+".found"] = verdicts[0][0]
		} else {
			snap[c.name+".sat"] = countTrue(verdicts[0])
		}
	}
	return benches, snap
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
