// Overhead benchmarks for the observability layer: the same MAC solve and
// large natural join measured with the obs registry off (the library
// default — this is the path every non-daemon user pays) and on. The
// acceptance bar for this repo is that disabling observability costs under
// 2% on these workloads; `make obs-overhead` runs exactly these. The
// off/on split lives in one binary so the comparison isolates the
// instrumentation's execution cost (the disabled path is a handful of
// atomic bool loads per solve/join call) from binary-layout shifts, which
// on the benchmark machines swing hot loops by more than the
// instrumentation itself — the inner join loop disassembles to identical
// instructions before and after this layer was added.
//
// Tracing stays off in the off and on modes: span recording is a consumer
// feature (cspd, csolve -trace), while the metric counters are the
// always-compiled-in part whose disabled cost has to be provably
// negligible. The engine probe's traced mode and BenchmarkObsOverheadSpan
// price what cspd pays with tracing on: a span per search node, written
// into the tracer's preallocated ring.
package csdb_bench

import (
	"context"
	"math/rand"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/gen"
	"csdb/internal/obs"
	"csdb/internal/relation"
)

// withObsState runs the sub-benchmark with the registry switched to
// enabled, restoring the prior global state afterwards.
func withObsState(b *testing.B, enabled bool, f func(b *testing.B)) {
	b.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(enabled)
	defer obs.SetEnabled(prev)
	f(b)
}

// BenchmarkObsOverheadEngine is the search-side overhead probe: the E7
// phase-transition MAC solve, instrumented at solve/propagation boundaries.
// The traced mode also records spans on the default tracer, as cspd does:
// the solve, its search and one propagation span per node, under a root.
func BenchmarkObsOverheadEngine(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	inst := gen.ModelB(rng, 14, 4, 0.5, 0.45)
	for _, mode := range []struct {
		name            string
		enabled, traced bool
	}{{"off", false, false}, {"on", true, false}, {"traced", true, true}} {
		b.Run(mode.name, func(b *testing.B) {
			withObsState(b, mode.enabled, func(b *testing.B) {
				prev := obs.Tracing()
				obs.SetTracing(mode.traced)
				defer obs.SetTracing(prev)
				defer obs.DefaultTracer().Drain()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !mode.traced {
						csp.Solve(inst, csp.Options{Algorithm: csp.MAC})
						continue
					}
					root := obs.StartRoot("bench.solve", "req-1")
					csp.SolveCtx(obs.WithSpan(context.Background(), root), inst, csp.Options{Algorithm: csp.MAC})
					root.End()
				}
			})
		})
	}
}

// BenchmarkObsOverheadSpan is one per-node span on an active tracer: start
// a child, set three attributes, end it into the ring.
func BenchmarkObsOverheadSpan(b *testing.B) {
	tr := obs.NewTracer(16384)
	tr.SetActive(true)
	root := tr.StartRoot("bench.solve", "req-1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartChild(root, "csp.propagate")
		sp.SetInt("var", int64(i))
		sp.SetInt("prunings", 3)
		sp.SetStr("phase", "root")
		sp.End()
	}
}

// overheadJoinPair mirrors the relation package's 10k-row natural-join
// benchmark workload (benchPair(10000, 1000)): R(a,b) with 10000 rows
// joining S(b,c) with 1000 rows on the shared b column.
func overheadJoinPair() (*relation.Relation, *relation.Relation) {
	rng := rand.New(rand.NewSource(11))
	r := relation.MustNew("a", "b")
	for i := 0; i < 10000; i++ {
		r.MustAdd(relation.Tuple{i, rng.Intn(1000)})
	}
	s := relation.MustNew("b", "c")
	for i := 0; i < 1000; i++ {
		s.MustAdd(relation.Tuple{rng.Intn(1000), i})
	}
	return r, s
}

// BenchmarkObsOverheadJoin is the kernel-side overhead probe: one large
// hash join, instrumented with per-call row/byte counters.
func BenchmarkObsOverheadJoin(b *testing.B) {
	r, s := overheadJoinPair()
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			withObsState(b, mode.enabled, func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if out := r.Join(s); out.Len() == 0 {
						b.Fatal("empty join")
					}
				}
			})
		})
	}
}

// BenchmarkObsOverheadVec is the labeled-metric overhead probe: one
// CounterVec increment and one HistogramVec observation per iteration, with
// the registry off (one atomic bool load each — the cost every solve pays
// after PR 8) and on (series lookup under RLock plus an atomic add).
func BenchmarkObsOverheadVec(b *testing.B) {
	vec := obs.NewCounterVec("bench.vec.outcome", "outcome")
	hist := obs.NewHistogramVec("bench.vec.ns", "route")
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			withObsState(b, mode.enabled, func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					vec.Inc("hit")
					hist.Observe(int64(i), "engine")
				}
			})
		})
	}
}

// BenchmarkObsOverheadEvents is the wide-event probe: emitting one
// fully-populated SolveEvent per iteration with the ring inactive (one
// atomic bool load — the library default) and active (one ring slot write
// under the mutex). Events are per solve, so this is the whole per-request
// cost cspd adds in PR 8.
func BenchmarkObsOverheadEvents(b *testing.B) {
	ring := obs.NewEventRing(4096)
	ev := obs.SolveEvent{
		TraceID: "req-1", Source: "cspd", Route: "hard", Strategy: "portfolio",
		Cache: obs.CacheMiss, QueueWaitNs: 1200, WallNs: 48_000_000,
		Nodes: 10_000, Backtracks: 4_000, Restarts: 3, Nogoods: 120,
		Winner: "Learn", Verdict: obs.VerdictSat,
	}
	for _, mode := range []struct {
		name   string
		active bool
	}{{"inactive", false}, {"active", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ring.SetActive(mode.active)
			defer ring.SetActive(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ring.Emit(ev)
			}
		})
	}
}
