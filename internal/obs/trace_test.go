package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestSpanParenting(t *testing.T) {
	tr := NewTracer(64)
	tr.SetActive(true)

	root := tr.StartRoot("solve", "req-1")
	child := tr.StartChild(root, "search")
	grand := tr.StartChild(child, "propagate")
	grand.SetInt("revisions", 7)
	grand.SetStr("phase", "root")
	grand.End()
	child.End()
	root.End()

	spans := tr.Drain()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Completion order: grand, child, root.
	g, c, r := spans[0], spans[1], spans[2]
	if g.Parent != c.ID || c.Parent != r.ID || r.Parent != 0 {
		t.Fatalf("parent chain wrong: %+v", spans)
	}
	for _, s := range spans {
		if s.TraceID != "req-1" {
			t.Fatalf("trace id not inherited: %+v", s)
		}
		if s.EndNs < s.StartNs {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}
	if len(g.Attrs) != 2 || g.Attrs[0].Key != "revisions" || g.Attrs[0].Int != 7 ||
		g.Attrs[1].Str != "root" {
		t.Fatalf("attrs wrong: %+v", g.Attrs)
	}
	// Drain cleared the ring.
	if got := tr.Drain(); len(got) != 0 {
		t.Fatalf("ring not cleared: %d spans", len(got))
	}
}

func TestInactiveTracerIsFree(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.StartRoot("x", "t")
	if sp != nil {
		t.Fatal("inactive tracer returned a live span")
	}
	// All methods must be nil-safe.
	sp.SetInt("a", 1)
	sp.SetStr("b", "c")
	sp.End()
	if sp.ID() != 0 || sp.TraceID() != "" {
		t.Fatal("nil span has identity")
	}
	if n := testing.AllocsPerRun(100, func() {
		s := tr.StartChild(nil, "y")
		s.End()
	}); n != 0 {
		t.Fatalf("inactive span path allocates %v per op", n)
	}
}

func TestRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	tr.SetActive(true)
	for i := 0; i < 10; i++ {
		sp := tr.StartRoot("s", "t")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	spans := tr.Drain()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	// The survivors are the newest four, oldest first.
	for j, s := range spans {
		if want := int64(6 + j); s.Attrs[0].Int != want {
			t.Fatalf("span %d has i=%d, want %d", j, s.Attrs[0].Int, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestContextPropagation(t *testing.T) {
	prev := Tracing()
	SetTracing(true)
	defer SetTracing(prev)
	defer defaultTracer.Drain()

	ctx := context.Background()
	if SpanFrom(ctx) != nil {
		t.Fatal("fresh context has a span")
	}
	var nilCtx context.Context
	if SpanFrom(nilCtx) != nil {
		t.Fatal("nil context has a span")
	}

	root := StartRoot("outer", "trace-9")
	ctx = WithSpan(ctx, root)
	ctx2, child := StartSpan(ctx, "inner")
	if child == nil || child.TraceID() != "trace-9" {
		t.Fatalf("child did not inherit trace: %+v", child)
	}
	if SpanFrom(ctx2) != child {
		t.Fatal("StartSpan did not install the child span")
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.SetActive(true)
	root := tr.StartRoot("a", "tid")
	tr.StartChild(root, "b").End()
	root.End()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Drain()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var rec SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line not valid JSON: %v: %s", err, line)
		}
		if rec.TraceID != "tid" {
			t.Fatalf("trace id lost in export: %s", line)
		}
	}
}

// TestLiveSpanMethodsDoNotAllocate: setting attributes and ending a live
// span write into the span's slots and the preallocated ring only.
func TestLiveSpanMethodsDoNotAllocate(t *testing.T) {
	tr := NewTracer(64)
	tr.SetActive(true)
	sp := tr.StartRoot("solve", "req-1")
	sp.SetInt("nodes", 1) // intern the names before measuring
	sp.SetStr("phase", "root")
	for name, f := range map[string]func(){
		"SetInt": func() { sp.rec.nattr = 0; sp.SetInt("nodes", 42) },
		"SetStr": func() { sp.rec.nattr = 0; sp.SetStr("phase", "root") },
		"End":    func() { sp.End() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s on a live span allocates %v per call", name, n)
		}
	}
}

// TestRingHoldsNoPointers: the collector never scans the ring or its
// attribute arena because no element type can hold a Go pointer.
func TestRingHoldsNoPointers(t *testing.T) {
	tr := NewTracer(4)
	for _, typ := range []reflect.Type{
		reflect.TypeOf(tr.ring).Elem(), reflect.TypeOf(tr.keys).Elem(), reflect.TypeOf(tr.vals).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("ring element type %v holds a pointer", typ)
		}
	}
}

func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true // pointers, strings, slices, maps, channels, funcs, interfaces
}

// TestNameTableOverflow: once the table holds maxNames names, every new
// name reads as overflowName, and names interned before still resolve.
func TestNameTableOverflow(t *testing.T) {
	tr := NewTracer(8)
	tr.SetActive(true)
	for i := 1; i < maxNames; i++ {
		if id := tr.names.id(fmt.Sprintf("name-%d", i)); int(id) != i {
			t.Fatalf("name %d got id %d", i, id)
		}
	}
	if id := tr.names.id("one-too-many"); id != 0 {
		t.Fatalf("name past the bound got id %d, want the overflow id 0", id)
	}
	sp := tr.StartRoot("another-new-name", "t")
	sp.SetStr("name-7", "yet-another")
	sp.End()
	spans := tr.Drain()
	if len(spans) != 1 || spans[0].Name != overflowName ||
		spans[0].Attrs[0].Key != "name-7" || spans[0].Attrs[0].Str != overflowName {
		t.Fatalf("overflowed names render as %+v, want %q for the new ones", spans, overflowName)
	}
}

// TestSpanLimits: a span keeps its first maxSpanAttrs attributes and the
// first traceIDMax bytes of its trace id.
func TestSpanLimits(t *testing.T) {
	tr := NewTracer(8)
	tr.SetActive(true)
	long := strings.Repeat("t", traceIDMax+5)
	sp := tr.StartRoot("s", long)
	for i := range maxSpanAttrs + 3 {
		sp.SetInt("i", int64(i))
	}
	sp.End()
	spans := tr.Drain()
	if got := spans[0].TraceID; got != long[:traceIDMax] {
		t.Fatalf("trace id %q, want its first %d bytes", got, traceIDMax)
	}
	if len(spans[0].Attrs) != maxSpanAttrs || spans[0].Attrs[maxSpanAttrs-1].Int != maxSpanAttrs-1 {
		t.Fatalf("attrs %+v, want the first %d", spans[0].Attrs, maxSpanAttrs)
	}
}
