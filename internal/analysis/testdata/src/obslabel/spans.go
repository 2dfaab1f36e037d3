package obslabeltest

import (
	"context"

	"csdb/internal/obs"
)

const phaseKey = "phase"

// goodSpanConstants: literal and named-constant span names and keys; the
// string value is free. (negative)
func goodSpanConstants(ctx context.Context, tr *obs.Tracer, lane string) {
	root := tr.StartRoot("solve", lane)
	_, sp := obs.StartSpan(ctx, "csp."+"search")
	sp.SetStr(phaseKey, lane)
	sp.SetInt("nodes", int64(len(lane)))
	sp.End()
	root.End()
}

// badSpanName: a span name from data would grow the name table with every
// distinct value. (true positive)
func badSpanName(parent *obs.Span, step string) {
	sp := obs.StartChild(parent, step)
	sp.End()
}

// badTracerSpanName: the tracer methods are held to the same rule.
// (true positive)
func badTracerSpanName(tr *obs.Tracer, name string) {
	tr.StartRoot(name, "req-1").End()
}

// badAttrKey: an attribute key from a pure-literal helper is enumerable,
// but span keys must be constants. (near-miss positive)
func badAttrKey(sp *obs.Span, r int) {
	sp.SetInt(routeLabel(r), 1)
}
