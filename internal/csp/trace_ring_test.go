package csp_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/gen"
	"csdb/internal/obs"
)

// TestTraceRingKeepsHardSearchTail: the default span ring keeps the last
// 16,384 spans of cspd's hard-search workload, portfolio races on
// phase-transition instances of 20 variables over 10 values at density 0.3,
// traced per search node (a few dozen spans a solve). Solves run until the
// ring has dropped spans; then it must hold exactly its capacity (the
// per-node spans carry two or three attributes, so the attribute arena never
// binds first), ending with the last solve's root.
func TestTraceRingKeepsHardSearchTail(t *testing.T) {
	const ringCap = 16384 // obs's default tracer capacity
	prev := obs.Tracing()
	obs.SetTracing(true)
	defer obs.SetTracing(prev)
	tr := obs.DefaultTracer()
	tr.Drain()
	defer tr.Drain()
	dropped := tr.Dropped()
	solves := 0
	for seed := int64(1); tr.Dropped() == dropped; seed++ {
		if seed > 2000 {
			t.Fatalf("%d solves did not fill the ring", solves)
		}
		inst := gen.PhaseTransition(rand.New(rand.NewSource(seed)), 20, 10, 0.3)
		root := obs.StartRoot("cspd.solve", fmt.Sprintf("req-%d", seed))
		csp.Portfolio(obs.WithSpan(context.Background(), root), inst, csp.PortfolioOptions{})
		root.End()
		solves++
	}
	spans := tr.Drain()
	t.Logf("%d solves, %d spans dropped, %d kept", solves, tr.Dropped()-dropped, len(spans))
	if len(spans) != ringCap {
		t.Fatalf("ring kept %d spans after dropping %d, want %d", len(spans), tr.Dropped()-dropped, ringCap)
	}
	if last := spans[len(spans)-1]; last.Name != "cspd.solve" || last.TraceID != fmt.Sprintf("req-%d", solves) {
		t.Fatalf("last span %+v, want the root of solve %d", last, solves)
	}
}
