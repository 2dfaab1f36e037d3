package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Structured tracing: spans with a name, start/end timestamps, attributes,
// a process-unique ID and a parent ID. Completed spans land in a fixed-size
// ring buffer; the exporter drains the ring as JSON lines (one span per
// line), which is what cmd/cspd's /trace endpoint and csolve's -trace flag
// serve.
//
// Spans deliberately do not try to be OpenTelemetry: there is no sampling,
// no propagation format, and attribute values are int64 or string only. The
// point is to record solver search trees, join-plan decisions, GAC revision
// waves and Yannakakis passes with parent-correct nesting at near-zero cost.
//
// The ring holds no Go pointer, so the collector never scans it. Span
// names, attribute keys and string values are ids into the tracer's name
// table, a bounded intern table (names past maxNames read as overflowName);
// integer values are stored inline; a span's attributes go into an arena
// sized with the ring (attrsPerSpan per span on average), and a span keeps
// its first maxSpanAttrs attributes. Ring and arena are allocated once,
// when the tracer is built, and never cleared: the default tracer's, built
// at start-up from fresh memory, cost resident memory only as spans fill
// them. SpanRecords are built only by Drain.

// Attr is one span attribute. Exactly one of Int/Str is meaningful; Str
// wins when nonempty.
type Attr struct {
	Key string `json:"k"`
	Int int64  `json:"v,omitempty"`
	Str string `json:"s,omitempty"`
}

// SpanRecord is the exported (completed) form of a span.
type SpanRecord struct {
	TraceID string `json:"trace_id,omitempty"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

const (
	// maxSpanAttrs is a span's attribute slot count; later attributes are
	// dropped. csp.solve, the widest span, sets 13.
	maxSpanAttrs = 16
	// attrsPerSpan sizes the attribute arena: capacity×attrsPerSpan slots.
	// The per-node csp.propagate spans carry two or three, so the arena
	// never binds before the span count does on a search trace.
	attrsPerSpan = 4
	// traceIDMax is the longest trace id the ring keeps; a longer one is
	// cut to its first traceIDMax bytes. cspd's "req-<n>" ids always fit.
	traceIDMax = 28
	// maxNames bounds the name table. Call sites pass constant names and
	// keys (csplint's obslabel checks it) and a few enumerable string
	// values, so the table holds tens of names.
	maxNames = 1024
	// strAttr marks an arena key whose value is a name id, not an int.
	strAttr = 1 << 15
)

// overflowName is what every name interned past maxNames reads as.
const overflowName = "obs.overflow"

// spanSlot is one completed span in the ring: 64 bytes, no pointers.
type spanSlot struct {
	id, parent     uint64
	startNs, endNs int64
	name           uint16 // name table id
	nattr          uint8  // attributes in the arena
	traceLen       uint8
	trace          [traceIDMax]byte
}

// Span is an in-flight span. A nil *Span is a valid no-op span: every method
// checks the receiver, so instrumentation sites never branch on tracing
// state beyond the Start call that produced the span.
type Span struct {
	tr      *Tracer
	traceID string
	rec     spanSlot
	keys    [maxSpanAttrs]uint16 // name ids; strAttr marks a string value
	vals    [maxSpanAttrs]int64
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil || s.rec.nattr == maxSpanAttrs {
		return
	}
	s.keys[s.rec.nattr] = s.tr.names.id(key)
	s.vals[s.rec.nattr] = v
	s.rec.nattr++
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil || s.rec.nattr == maxSpanAttrs {
		return
	}
	s.keys[s.rec.nattr] = s.tr.names.id(key) | strAttr
	s.vals[s.rec.nattr] = int64(s.tr.names.id(v))
	s.rec.nattr++
}

// ID returns the span's process-unique id (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.id
}

// TraceID returns the trace the span belongs to ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// End stamps the span's end time and commits it to the tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.endNs = time.Now().UnixNano()
	s.rec.traceLen = uint8(copy(s.rec.trace[:], s.traceID))
	s.tr.push(s)
}

// Tracer owns the span id allocator, the name table and the completed-span
// ring.
type Tracer struct {
	active  atomic.Bool
	ids     atomic.Uint64
	dropped atomic.Int64
	names   nameTable

	mu    sync.Mutex
	ring  []spanSlot
	head  int // ring index of the oldest span
	n     int // spans held
	keys  []uint16
	vals  []int64
	aHead int // arena index of the oldest span's first attribute
	aN    int // attributes held
}

// NewTracer returns a tracer whose ring holds up to capacity completed
// spans; the oldest spans are overwritten once the ring or its attribute
// arena is full (and counted in Dropped).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	arena := max(capacity*attrsPerSpan, maxSpanAttrs)
	t := &Tracer{
		ring: make([]spanSlot, capacity),
		keys: make([]uint16, arena),
		vals: make([]int64, arena),
	}
	t.names.init()
	return t
}

// defaultTracerCap bounds the default ring: 16384 spans, 1.7 MB with the
// arena, enough for the last 16384 nodes of a hard-search solve.
const defaultTracerCap = 16384

var defaultTracer = NewTracer(defaultTracerCap)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// SetTracing turns span recording on the default tracer on or off.
func SetTracing(v bool) { defaultTracer.SetActive(v) }

// Tracing reports whether the default tracer is recording.
func Tracing() bool { return defaultTracer.Active() }

// SetActive turns span recording on or off.
func (t *Tracer) SetActive(v bool) { t.active.Store(v) }

// Active reports whether the tracer is recording.
func (t *Tracer) Active() bool { return t.active.Load() }

// Dropped returns the number of completed spans lost before being drained:
// overwritten to make room in the ring or in its attribute arena.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// StartRoot begins a new root span under the given trace id. Returns nil
// (the no-op span) when the tracer is inactive.
func (t *Tracer) StartRoot(name, traceID string) *Span {
	if t == nil || !t.active.Load() {
		return nil
	}
	sp := &Span{tr: t, traceID: traceID}
	sp.rec.id = t.ids.Add(1)
	sp.rec.name = t.names.id(name)
	sp.rec.startNs = time.Now().UnixNano()
	return sp
}

// StartChild begins a span under parent, inheriting its trace id. A nil
// parent yields a root span with no trace id. Returns nil when inactive.
func (t *Tracer) StartChild(parent *Span, name string) *Span {
	if t == nil || !t.active.Load() {
		return nil
	}
	sp := &Span{tr: t}
	sp.rec.id = t.ids.Add(1)
	sp.rec.name = t.names.id(name)
	sp.rec.startNs = time.Now().UnixNano()
	if parent != nil {
		sp.traceID = parent.traceID
		sp.rec.parent = parent.rec.id
	}
	return sp
}

// push copies a completed span into the ring, evicting the oldest spans
// until both a slot and its attributes' arena run are free.
func (t *Tracer) push(s *Span) {
	na := int(s.rec.nattr)
	t.mu.Lock()
	for t.n == len(t.ring) || t.aN+na > len(t.keys) {
		old := &t.ring[t.head]
		t.aHead = (t.aHead + int(old.nattr)) % len(t.keys)
		t.aN -= int(old.nattr)
		t.head = (t.head + 1) % len(t.ring)
		t.n--
		t.dropped.Add(1)
	}
	t.ring[(t.head+t.n)%len(t.ring)] = s.rec
	t.n++
	for i := range na {
		at := (t.aHead + t.aN) % len(t.keys)
		t.keys[at], t.vals[at] = s.keys[i], s.vals[i]
		t.aN++
	}
	t.mu.Unlock()
}

// Drain returns the buffered spans in completion order and clears the ring.
func (t *Tracer) Drain() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return nil
	}
	// Every id in the ring was interned before its span was pushed.
	names := t.names.snap.Load().names
	out := make([]SpanRecord, t.n)
	attrs := make([]Attr, t.aN)
	a := t.aHead
	var traceID string
	for i := range out {
		r := &t.ring[(t.head+i)%len(t.ring)]
		// Spans of one trace come in runs: share their trace id string.
		if tid := r.trace[:r.traceLen]; string(tid) != traceID {
			traceID = string(tid)
		}
		out[i] = SpanRecord{TraceID: traceID, ID: r.id, Parent: r.parent,
			Name: names[r.name], StartNs: r.startNs, EndNs: r.endNs}
		if r.nattr == 0 {
			continue
		}
		rs := attrs[:r.nattr:r.nattr]
		attrs = attrs[r.nattr:]
		for j := range rs {
			k, v := t.keys[a], t.vals[a]
			a = (a + 1) % len(t.keys)
			rs[j].Key = names[k&^strAttr]
			if k&strAttr != 0 {
				rs[j].Str = names[v]
			} else {
				rs[j].Int = v
			}
		}
		out[i].Attrs = rs
	}
	t.head, t.n, t.aHead, t.aN = 0, 0, 0, 0
	return out
}

// nameTable interns the tracer's span names, attribute keys and string
// values as uint16 ids. Lookups read an immutable snapshot through one
// atomic load; adding a name copies the snapshot under mu, at most maxNames
// times over the tracer's life.
type nameTable struct {
	snap atomic.Pointer[nameSnap]
	mu   sync.Mutex
}

type nameSnap struct {
	ids   map[string]uint16
	names []string // by id; id 0 is overflowName
}

func (nt *nameTable) init() {
	nt.snap.Store(&nameSnap{ids: map[string]uint16{overflowName: 0}, names: []string{overflowName}})
}

// id returns name's id, interning it if new; once the table holds maxNames
// names, a new name gets overflowName's id, 0.
func (nt *nameTable) id(name string) uint16 {
	if id, ok := nt.snap.Load().ids[name]; ok {
		return id
	}
	nt.mu.Lock()
	defer nt.mu.Unlock()
	cur := nt.snap.Load()
	if id, ok := cur.ids[name]; ok {
		return id
	}
	if len(cur.names) == maxNames {
		return 0
	}
	id := uint16(len(cur.names))
	name = strings.Clone(name) // keep no caller's larger buffer alive
	ids := make(map[string]uint16, len(cur.ids)+1)
	for k, v := range cur.ids {
		ids[k] = v
	}
	ids[name] = id
	nt.snap.Store(&nameSnap{ids: ids, names: append(cur.names[:id:id], name)})
	return id
}

// StartRoot begins a root span on the default tracer.
func StartRoot(name, traceID string) *Span { return defaultTracer.StartRoot(name, traceID) }

// StartChild begins a child span on the default tracer.
func StartChild(parent *Span, name string) *Span { return defaultTracer.StartChild(parent, name) }

// spanKey carries the current span through a context.
type spanKey struct{}

// WithSpan returns a context carrying s as the current span. A nil span
// returns ctx unchanged.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the current span of the context, or nil. A nil context
// is accepted (some kernel paths pass nil for "no cancellation").
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan begins a child of ctx's current span on the default tracer and
// returns a context carrying the new span. When tracing is off it returns
// ctx unchanged and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := defaultTracer.StartChild(SpanFrom(ctx), name)
	return WithSpan(ctx, sp), sp
}

// WriteJSONL writes one span per line as compact JSON.
func WriteJSONL(w io.Writer, spans []SpanRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
