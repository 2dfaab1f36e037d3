// Package obsboundarytest exercises the obsboundary analyzer: obs metric
// recording must happen at call boundaries, never inside loops.
package obsboundarytest

import "csdb/internal/obs"

var (
	rows    = obs.NewCounter("test.rows")
	depth   = obs.NewGauge("test.depth")
	latency = obs.NewHistogram("test.latency")
)

// badIncInLoop: per-element counter bump. (true positive)
func badIncInLoop(xs []int) {
	for range xs {
		rows.Inc()
	}
}

// badManyInLoop: Add, Set and Observe inside a for statement — one
// diagnostic each. (true positives)
func badManyInLoop(n int) {
	for i := 0; i < n; i++ {
		rows.Add(1)
		depth.Set(int64(i))
		latency.Observe(int64(i))
	}
}

// badRegistryInLoop: registry lookups take the registry mutex; hoist them.
// (true positive)
func badRegistryInLoop(names []string) {
	for _, name := range names {
		obs.NewCounter(name).Add(1)
	}
}

// goodTallyAndFlush: the discipline — tally a local, flush once. (negative)
func goodTallyAndFlush(xs []int) {
	var n int64
	for range xs {
		n++
	}
	rows.Add(n)
}

// recordBatch flushes a tally; it records directly but at its own call
// boundary.
func recordBatch(n int64) {
	rows.Add(n)
}

// goodHelperInLoop: calling a helper that records is the helper's business —
// a function is a call boundary. (near-miss negative: lexically a call in a
// loop, but not a direct recording call)
func goodHelperInLoop(batches [][]int) {
	for _, b := range batches {
		recordBatch(int64(len(b)))
	}
}

// goodSpanInLoop: span methods are exempt; per-step spans are the tracer's
// point. (near-miss negative: an obs method call inside a loop)
func goodSpanInLoop(parent *obs.Span, steps []string) {
	for _, s := range steps {
		sp := obs.StartChild(parent, "step")
		sp.SetStr("name", s)
		sp.End()
	}
}

// goodClosureBoundary: a function literal starts a fresh scope — defining a
// recording closure inside a loop is fine; it runs on its own schedule.
// (near-miss negative)
func goodClosureBoundary(xs []int) []func() {
	var fns []func()
	for range xs {
		fns = append(fns, func() {
			rows.Inc()
		})
	}
	return fns
}

// badLoopInClosure: a loop inside a closure is a loop. (true positive)
func badLoopInClosure(xs []int) func() {
	return func() {
		for range xs {
			rows.Inc()
		}
	}
}

// goodRecordThenLoop: recording before the loop body is the boundary shape.
// (negative)
func goodRecordThenLoop(xs []int) {
	rows.Add(int64(len(xs)))
	for range xs {
		_ = xs
	}
}

var outcomes = obs.NewCounterVec("test.outcomes", "kind")

// badVecInLoop: labeled vectors obey the same boundary rule. (true positive)
func badVecInLoop(xs []int) {
	for range xs {
		outcomes.Inc("row")
	}
}

// goodVecFlush: tally locally, flush the labeled series once. (negative)
func goodVecFlush(xs []int) {
	outcomes.Add(int64(len(xs)), "row")
}
