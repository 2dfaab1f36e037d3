package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"csdb/internal/csp"
	"csdb/internal/dispatch"
	"csdb/internal/gen"
)

// E13 — the tractability dispatcher (internal/dispatch) against the
// generic portfolio on structurally tractable families: every instance
// must get the same verdict from both, no PTIME-classified instance may
// fall back to the portfolio, and the structure-routed solve should win
// the wall clock — the operational content of "consult the structure
// first" (Sections 3 and 6).
func E13(seed int64) *Table {
	t := &Table{
		ID:     "E13",
		Title:  "tractability dispatcher vs portfolio",
		Claim:  "Sections 3/6: classify structure, route to the matching PTIME solver; the generic engine is only for instances with no polynomial witness",
		Header: []string{"family", "instances", "agree", "fallbacks", "dispatch ms", "portfolio ms", "speedup"},
	}
	start := time.Now()
	rng := rand.New(rand.NewSource(seed))
	an := dispatch.NewAnalyzer(0, 0)

	families := []struct {
		name string
		gen  func() *csp.Instance
	}{
		{"α-acyclic (ear-grown, ≤3-ary, d=3)", func() *csp.Instance {
			return gen.AcyclicCSP(rng, 8+rng.Intn(6), 3, 3, 0.25+0.2*rng.Float64())
		}},
		{"full 3-trees (binary, d=3)", func() *csp.Instance {
			n := 10 + rng.Intn(8)
			g, _ := gen.PartialKTree(rng, n, 3, 0)
			return gen.CSPOnGraph(rng, g, 3, 0.15+0.2*rng.Float64())
		}},
		{"random trees (binary, d=3)", func() *csp.Instance {
			n := 12 + rng.Intn(10)
			return gen.CSPOnGraph(rng, gen.RandomTree(rng, n), 3, 0.2+0.2*rng.Float64())
		}},
	}

	const trials = 12
	ctx := context.Background()
	for _, fam := range families {
		var dispDur, portDur time.Duration
		agree, fallbacks := 0, 0
		for i := 0; i < trials; i++ {
			p := fam.gen()
			var out dispatch.Outcome
			dispDur += timed(func() { out, _ = an.Run(ctx, p, "auto") })
			var res csp.PortfolioResult
			portDur += timed(func() { res = csp.Portfolio(ctx, p, csp.PortfolioOptions{}) })
			if out.Found == res.Found {
				agree++
			}
			if out.Fallback {
				fallbacks++
			}
		}
		t.Rows = append(t.Rows, []string{
			fam.name, itoa(trials),
			fmt.Sprintf("%d/%d", agree, trials), itoa(fallbacks),
			ms(dispDur), ms(portDur),
			fmt.Sprintf("%.1fx", float64(portDur)/float64(dispDur)),
		})
	}
	t.Notes = append(t.Notes,
		"Dispatch time includes classification (tree / Schaefer / GYO / width probe) and the routed PTIME solve; the portfolio races MAC+MRV, CBJ and Learn to a first verdict.",
		"`fallbacks` counts dispatcher solves answered by the portfolio — 0 means every instance was classified into a PTIME class, the differential gate's invariant.")
	t.Elapsed = time.Since(start)
	return t
}
