package relation

import (
	"context"
	"runtime"
	"slices"
	"time"
)

// Natural join on the integer-hash kernel.
//
// A join builds a transient index over the build side's shared
// columns — the Table's open-addressed slots, one per distinct key, each
// holding the latest build row with that key, and a next array chaining
// every row to the previous one with the same key, so the build allocates
// no per-row values and a probe compares key values once per key, not once
// per candidate pair — and then probes in two passes: the first finds each
// probe row's chain and counts its rows, and the second writes the
// output into an arena grown once, to its exact size. The join-tree
// engine's join steps, semijoins and projections (jointree.go) run this one
// kernel, and every natural join of the package runs the engine (JoinAll).
// Because the inputs
// are duplicate-free sets and a natural-join output row is determined by its
// (r-row, s-row) pair projected onto r.attrs ∪ s.attrs, the output is itself
// duplicate-free and is emitted straight into the flat value array with no
// membership checks; the output's own index is built lazily if it is ever
// probed.

// joinCheckEvery is how many units of work — candidate pairs probed, rows
// hashed or counted — run between context polls (the cancellation
// discipline shared with the search engines' cancelChecker). 1,024 units
// take 20-50 µs, the same slice as a search lane's poll interval, so a join
// racing the searchers gets no longer turns than they do.
const joinCheckEvery = 1024

// yieldQuantum is the least time a Poller's goroutine runs between two
// yields of the processor: the same quantum, for the same reason, as the
// search engines' cancelChecker in internal/csp. Yielding at every poll
// would cost a join running alone a processor wake-up every few tens of
// microseconds.
const yieldQuantum = 100 * time.Microsecond

// Poller amortizes context polls over a countdown of work units. A poll
// also yields the processor (runtime.Gosched) once the goroutine has run
// for yieldQuantum, so a kernel sharing fewer processors with other
// goroutines runs in short slices instead of the runtime's ~10 ms
// preemption turns. The quantum's clock starts when the Poller is made: no
// goroutine of this package races another, so a short join owes no yield
// at its first poll (the search engines' cancelChecker, whose portfolio
// lanes do race, keeps that first yield). A Poller over a nil context (the
// zero Poller) never polls.
type Poller struct {
	ctx       context.Context
	countdown int
	resumed   time.Time // when the Poller was made or last returned from a yield
}

// NewPoller returns a Poller over ctx.
func NewPoller(ctx context.Context) *Poller {
	return &Poller{ctx: ctx, countdown: joinCheckEvery, resumed: time.Now()}
}

// Tick counts one unit of work; once every joinCheckEvery units it yields
// (if the quantum has passed) and returns the context's error. The
// countdown is small enough to inline into the kernel loops; poll is the
// out-of-line rest.
func (p *Poller) Tick() error {
	if p.ctx == nil {
		return nil
	}
	p.countdown--
	if p.countdown > 0 {
		return nil
	}
	return p.poll()
}

func (p *Poller) poll() error {
	p.countdown = joinCheckEvery
	if time.Since(p.resumed) >= yieldQuantum {
		runtime.Gosched()
		p.resumed = time.Now()
	}
	return p.ctx.Err()
}

// joinTable is the transient build-side index over the rows of data (of
// arity k) projected onto cols: slots holds the latest row id+1 of each
// distinct key, and next[i] is the previous row with row i's key, -1 at the
// first. slots is open-addressed like a Table's, or, when radix is set,
// indexed by the key's mixed-radix value.
type joinTable struct {
	data        []int
	k, radix    int
	cols        []int
	slots, next []int32
}

// buildJoinTable indexes the rows of s on the given columns into t, reusing
// t's arrays, ticking pl once per row. When dom > 0 and the dom^len(cols)
// possible keys are at most four times the hashed index's slots, slots is
// indexed by a key's value instead: no hash, no probe run and no key
// compare. Every key value must then lie in [0, dom), on both sides of the
// join.
func buildJoinTable(pl *Poller, t *joinTable, s *Table, cols []int, dom int) error {
	t.data, t.k, t.cols, t.radix = s.data, s.k, cols, 0
	size := SlotCount(s.n)
	if keys := 1; dom > 0 {
		for range cols {
			if keys *= dom; keys > 4*size {
				break
			}
		}
		if keys <= 4*size {
			t.radix, size = dom, keys
		}
	}
	t.slots = slices.Grow(t.slots[:0], size)[:size]
	clear(t.slots)
	t.next = slices.Grow(t.next[:0], s.n)[:s.n]
	mask := len(t.slots) - 1
	for i := 0; i < s.n; i++ {
		if err := pl.Tick(); err != nil {
			return err
		}
		base := i * s.k
		var j int
		if t.radix > 0 {
			j = t.key(s.data, base, cols)
		} else {
			j = int(hashRowCols(s.data, base, cols)) & mask
			for t.slots[j] != 0 && !t.sameKey(s.data, base, cols, t.slots[j]-1) {
				j = (j + 1) & mask
			}
		}
		t.next[i] = t.slots[j] - 1
		t.slots[j] = int32(i + 1)
	}
	return nil
}

// key returns the mixed-radix value of the row at base in data projected
// onto cols.
func (t *joinTable) key(data []int, base int, cols []int) int {
	key := 0
	for _, c := range cols {
		key = key*t.radix + data[base+c]
	}
	return key
}

// sameKey reports whether the row at base in data, projected onto cols,
// equals build row id's key.
func (t *joinTable) sameKey(data []int, base int, cols []int, id int32) bool {
	sBase := int(id) * t.k
	for c, col := range cols {
		if data[base+col] != t.data[sBase+t.cols[c]] {
			return false
		}
	}
	return true
}

// head returns the latest build row whose key equals the projection of the
// row at base in data onto cols, or -1; next walks the rest.
func (t *joinTable) head(data []int, base int, cols []int) int32 {
	if t.radix > 0 {
		return t.slots[t.key(data, base, cols)] - 1
	}
	mask := len(t.slots) - 1
	for j := int(hashRowCols(data, base, cols)) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if id := t.slots[j] - 1; t.sameKey(data, base, cols, id) {
			return id
		}
	}
	return -1
}

// maxPresize caps the values a probe reserves up front: a join whose count
// pass finds more matches grows its output as it writes, so that an
// exploding join is stopped by its context while it grows rather than
// asking for all of its memory at once.
const maxPresize = 1 << 20

// joinProbe probes every row of r, keyed on rCols, against the build table
// and appends the output rows to dst: each probe row followed by the sOnly
// columns of every build row with its key, in probe order and chain order.
// It returns dst and the number of rows appended. A first pass finds each
// probe row's chain head, storing it in heads, and counts the chains'
// rows, so dst grows once, to the exact size; the second pass writes. It
// ticks pl once per probe row and once per output row.
func joinProbe(pl *Poller, build *joinTable, r *Table, rCols, sOnly []int, heads []int32, dst []int) ([]int, int, error) {
	rows := 0
	for i := range r.n {
		if err := pl.Tick(); err != nil {
			return nil, 0, err
		}
		heads[i] = build.head(r.data, i*r.k, rCols)
		for id := heads[i]; id >= 0; id = build.next[id] {
			rows++
		}
	}
	if n := min(rows*(r.k+len(sOnly)), maxPresize); cap(dst)-len(dst) < n {
		dst = append(make([]int, 0, max(len(dst)+n, 2*cap(dst))), dst...)
	}
	for i := range r.n {
		row := r.Row(i)
		for id := heads[i]; id >= 0; id = build.next[id] {
			if err := pl.Tick(); err != nil {
				return nil, 0, err
			}
			dst = append(dst, row...)
			sBase := int(id) * build.k
			for _, j := range sOnly {
				dst = append(dst, build.data[sBase+j])
			}
		}
	}
	return dst, rows, nil
}
