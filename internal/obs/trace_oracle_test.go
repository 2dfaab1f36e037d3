package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// refTracer is the tracer's ring as it was before spans moved off the heap:
// a []SpanRecord ring whose spans append their attributes to a slice. It is
// kept as the oracle for the pointer-free ring.
type refTracer struct {
	ids     uint64
	dropped int64
	buf     []SpanRecord
	next    int
	full    bool
}

type refSpan struct {
	tr  *refTracer
	rec SpanRecord
}

func newRefTracer(capacity int) *refTracer {
	return &refTracer{buf: make([]SpanRecord, capacity)}
}

func (t *refTracer) startRoot(name, traceID string) *refSpan {
	t.ids++
	return &refSpan{tr: t, rec: SpanRecord{TraceID: traceID, ID: t.ids, Name: name}}
}

func (t *refTracer) startChild(parent *refSpan, name string) *refSpan {
	t.ids++
	sp := &refSpan{tr: t, rec: SpanRecord{ID: t.ids, Name: name}}
	if parent != nil {
		sp.rec.TraceID = parent.rec.TraceID
		sp.rec.Parent = parent.rec.ID
	}
	return sp
}

func (s *refSpan) setInt(key string, v int64) {
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Int: v})
}

func (s *refSpan) setStr(key, v string) {
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Str: v})
}

func (s *refSpan) end() {
	t := s.tr
	if t.full {
		t.dropped++
	}
	t.buf[t.next] = s.rec
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
}

func (t *refTracer) drain() []SpanRecord {
	var out []SpanRecord
	if t.full {
		out = append(out, t.buf[t.next:]...)
	}
	out = append(out, t.buf[:t.next]...)
	for i := range t.buf {
		t.buf[i] = SpanRecord{}
	}
	t.next, t.full = 0, false
	return out
}

// twinSpan drives one span of each tracer. Starts and ends are serialised
// by the forest's lock, so both tracers number spans and complete them in
// the same order; attributes are set without it.
type twinSpan struct {
	got  *Span
	want *refSpan
}

type twinForest struct {
	mu   sync.Mutex
	got  *Tracer
	want *refTracer
	// Dropped counts at the last check.
	gotDropped, wantDropped int64
}

var (
	forestNames = []string{"csp.solve", "csp.search", "csp.propagate", "csp.portfolio", "csp.strategy", "cspd.solve"}
	forestKeys  = []string{"vars", "dom", "constraints", "strategy", "nodes", "backtracks", "prunings",
		"max_depth", "restarts", "nogoods", "nogood_hits", "found", "aborted", "var", "wipeout", "phase"}
	forestStrs = []string{"", "root", "mac_mrv", "cbj", "learn", "portfolio", "parse"}
)

func (f *twinForest) start(parent *twinSpan, name, traceID string) *twinSpan {
	f.mu.Lock()
	defer f.mu.Unlock()
	if parent == nil {
		return &twinSpan{f.got.StartRoot(name, traceID), f.want.startRoot(name, traceID)}
	}
	return &twinSpan{f.got.StartChild(parent.got, name), f.want.startChild(parent.want, name)}
}

func (f *twinForest) end(s *twinSpan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s.got.End()
	s.want.end()
}

// grow builds a random span tree under parent: up to 13 int and string
// attributes per span (csp.solve sets 13), and children nested up to depth.
func (f *twinForest) grow(rng *rand.Rand, parent *twinSpan, traceID string, depth int) {
	sp := f.start(parent, forestNames[rng.Intn(len(forestNames))], traceID)
	nattr := rng.Intn(4)
	if rng.Intn(8) == 0 {
		nattr = 13
	}
	for range nattr {
		key := forestKeys[rng.Intn(len(forestKeys))]
		if rng.Intn(3) == 0 {
			v := forestStrs[rng.Intn(len(forestStrs))]
			sp.got.SetStr(key, v)
			sp.want.setStr(key, v)
		} else {
			v := rng.Int63() - rng.Int63()
			sp.got.SetInt(key, v)
			sp.want.setInt(key, v)
		}
	}
	if depth > 0 {
		for range rng.Intn(4) {
			f.grow(rng, sp, traceID, depth-1)
		}
	}
	f.end(sp)
}

// checkAgainstOracle drains both tracers and requires the ring to hold the
// longest suffix of the oracle's spans that fits its span and arena
// capacities, identical but for the timestamps, with every other span
// counted in Dropped.
func checkAgainstOracle(t *testing.T, f *twinForest) {
	t.Helper()
	want := f.want.drain()
	total := int64(len(want)) + f.want.dropped - f.wantDropped
	got := f.got.Drain()
	dropped := f.got.Dropped() - f.gotDropped
	f.gotDropped, f.wantDropped = f.got.Dropped(), f.want.dropped
	keep, attrs := 0, 0
	for i := len(want) - 1; i >= 0 && keep < len(f.got.ring); i-- {
		if attrs+len(want[i].Attrs) > len(f.got.keys) {
			break
		}
		attrs += len(want[i].Attrs)
		keep++
	}
	if len(got) != keep {
		t.Fatalf("ring returned %d spans, want the last %d of the oracle's %d", len(got), keep, len(want))
	}
	if int64(len(got))+dropped != total {
		t.Fatalf("%d spans returned + %d dropped != %d completed", len(got), dropped, total)
	}
	want = want[len(want)-keep:]
	for i := range got {
		if got[i].EndNs < got[i].StartNs || got[i].StartNs == 0 {
			t.Fatalf("span %d has times %d..%d", i, got[i].StartNs, got[i].EndNs)
		}
		g := got[i]
		g.StartNs, g.EndNs = 0, 0
		if !reflect.DeepEqual(g, want[i]) {
			t.Fatalf("span %d:\n got %+v\nwant %+v", i, g, want[i])
		}
	}
}

// TestRingMatchesOracle runs random span forests through the ring and the
// oracle, sequentially and from concurrent goroutines, at a capacity that
// never wraps and at ones that wrap many times (the smallest also binds on
// the attribute arena before the span count).
func TestRingMatchesOracle(t *testing.T) {
	for _, capacity := range []int{4096, 64, 16, 5} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("cap%d/workers%d", capacity, workers), func(t *testing.T) {
				f := &twinForest{got: NewTracer(capacity), want: newRefTracer(capacity)}
				f.got.SetActive(true)
				for round := range 3 {
					var wg sync.WaitGroup
					for w := range workers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							rng := rand.New(rand.NewSource(int64(100*round + w)))
							for k := range 16 {
								f.grow(rng, nil, fmt.Sprintf("req-%d-%d-%d", round, w, k), 3)
							}
						}()
					}
					wg.Wait()
					checkAgainstOracle(t, f)
				}
			})
		}
	}
}
