package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Wide events: one canonical record per solve, in the
// everything-about-this-request-in-one-row discipline of production serving
// stacks. Where the span ring answers "what happened inside this solve" and
// the metrics registry answers "how is the fleet doing", the wide event is
// the join key between them — a single JSONL line carrying the request's
// trace ID (shared with the span ring), how it was routed, what the serving
// layers did with it (cache outcome, queue wait, shed), what the engine
// spent, and the verdict.
//
// Events follow the tracer's cost model: emission is gated by one atomic
// bool load when the ring is inactive, and active emission is one ring slot
// write under a mutex — events are per solve, never per node. Completed
// events land in a fixed-size ring drained by cspd's /events endpoint (and
// csolve's -events flag); an optional sink additionally streams every event
// as it is emitted, which is what cspd's -events flag uses so a crash loses
// at most the last unflushed line.

// Verdict values of a SolveEvent.
const (
	VerdictSat     = "sat"
	VerdictUnsat   = "unsat"
	VerdictUnknown = "unknown" // aborted: timeout, cancellation, node limit
	VerdictShed    = "shed"    // rejected by admission control
	VerdictError   = "error"   // request never reached a solver verdict
)

// Cache outcomes of a SolveEvent.
const (
	CacheHit      = "hit"      // replayed from the canonical result cache
	CacheMiss     = "miss"     // this request ran the engine
	CacheFollower = "follower" // collapsed onto another request's flight
	CacheNone     = ""         // no caching layer in front (csolve)
)

// SolveEvent is the canonical wide event: everything the serving stack and
// the engine know about one solve, in one record.
type SolveEvent struct {
	// TsNs is the event's completion timestamp (UnixNano).
	TsNs int64 `json:"ts_ns"`
	// TraceID cross-links the event to the span ring: the root span of the
	// same request carries the identical trace_id.
	TraceID string `json:"trace_id"`
	// Source is the emitting binary: "cspd" or "csolve".
	Source string `json:"source"`
	// Route is how the solve was routed: a dispatch class (tree, schaefer,
	// acyclic, width, hard) for auto-routed solves, otherwise the engine
	// lane that ran ("portfolio", "mac", "cbj", ...).
	Route string `json:"route,omitempty"`
	// Strategy is the requested strategy parameter (cspd) or engine mode
	// (csolve); unlike Route it names what was asked for, not what ran.
	Strategy string `json:"strategy,omitempty"`
	// Cache is the serving-layer outcome: hit, miss, follower, or empty when
	// no cache fronted the solve.
	Cache string `json:"cache,omitempty"`
	// QueueWaitNs is the time spent waiting for an admission slot (leaders
	// only; cache hits and followers never queue).
	QueueWaitNs int64 `json:"queue_wait_ns,omitempty"`
	// WallNs is the engine wall clock (0 for cache hits and shed requests).
	WallNs int64 `json:"wall_ns,omitempty"`
	// Engine effort counters, from csp.Stats.
	Nodes      int64 `json:"nodes,omitempty"`
	Backtracks int64 `json:"backtracks,omitempty"`
	Restarts   int64 `json:"restarts,omitempty"`
	Nogoods    int64 `json:"nogoods,omitempty"`
	// Winner is the portfolio's winning lane, when a portfolio ran.
	Winner string `json:"winner,omitempty"`
	// Verdict is the outcome class: sat, unsat, unknown, shed, error.
	Verdict string `json:"verdict"`
	// Cause carries the shed/error detail (admission queue full, parse
	// failure, bad parameter, ...); empty on the happy paths.
	Cause string `json:"cause,omitempty"`
}

// EventRing owns the completed-event ring buffer and the optional streaming
// sink. Same shape as the span Tracer on purpose: one atomic activity bit,
// drain-or-lose ring, dropped counter.
type EventRing struct {
	active  atomic.Bool
	dropped atomic.Int64

	mu   sync.Mutex
	buf  []SolveEvent
	next int
	full bool
	sink *bufio.Writer
}

// NewEventRing returns a ring holding up to capacity events; older events
// are overwritten once it is full (and counted in Dropped).
func NewEventRing(capacity int) *EventRing {
	if capacity < 1 {
		capacity = 1
	}
	return &EventRing{buf: make([]SolveEvent, capacity)}
}

// defaultEventCap bounds the default ring: wide events are per solve (not
// per span), so 4096 covers minutes of heavy traffic between drains.
const defaultEventCap = 4096

var defaultEvents = NewEventRing(defaultEventCap)

// DefaultEvents returns the process-wide event ring.
func DefaultEvents() *EventRing { return defaultEvents }

// SetEvents turns wide-event recording on the default ring on or off.
func SetEvents(v bool) { defaultEvents.SetActive(v) }

// EventsActive reports whether the default ring is recording.
func EventsActive() bool { return defaultEvents.Active() }

// Emit records ev on the default ring.
func Emit(ev SolveEvent) { defaultEvents.Emit(ev) }

// SetActive turns event recording on or off.
func (r *EventRing) SetActive(v bool) { r.active.Store(v) }

// Active reports whether the ring is recording.
func (r *EventRing) Active() bool { return r.active.Load() }

// Dropped returns the number of events overwritten before being drained.
func (r *EventRing) Dropped() int64 { return r.dropped.Load() }

// SetSink attaches a writer that additionally receives every emitted event
// as one compact JSON line, independent of ring drains. A nil writer
// detaches the sink (flushing first). The ring serializes sink writes under
// its mutex.
func (r *EventRing) SetSink(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink != nil {
		r.sink.Flush()
	}
	if w == nil {
		r.sink = nil
		return
	}
	r.sink = bufio.NewWriter(w)
}

// FlushSink flushes any buffered sink bytes (a no-op without a sink).
func (r *EventRing) FlushSink() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink != nil {
		r.sink.Flush()
	}
}

// Emit commits one event to the ring (and the sink, when attached). No-op
// while inactive, at the cost of one atomic load: Emit itself is small
// enough to inline, and the commit slow path is a separate method so the
// sink encoder's &ev escape cannot force a heap copy of the argument on the
// inactive path.
func (r *EventRing) Emit(ev SolveEvent) {
	if r == nil || !r.active.Load() {
		return
	}
	r.commit(ev)
}

func (r *EventRing) commit(ev SolveEvent) {
	r.mu.Lock()
	if r.full {
		r.dropped.Add(1)
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	if r.sink != nil {
		enc := json.NewEncoder(r.sink)
		_ = enc.Encode(&ev)
	}
	r.mu.Unlock()
}

// Drain returns the buffered events in emission order and clears the ring.
func (r *EventRing) Drain() []SolveEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SolveEvent
	if r.full {
		out = make([]SolveEvent, 0, len(r.buf))
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf[:r.next]...)
	}
	for i := range r.buf {
		r.buf[i] = SolveEvent{}
	}
	r.next = 0
	r.full = false
	return out
}

// WriteEventsJSONL writes one event per line as compact JSON.
func WriteEventsJSONL(w io.Writer, events []SolveEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
