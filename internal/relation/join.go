package relation

import (
	"context"
	"runtime"
	"sync"
	"time"

	"csdb/internal/obs"
)

// Natural join and semijoin on the integer-hash kernel.
//
// Both operators build a transient hash table over the build side's shared
// columns — a map from column hash to the most recent matching row, chained
// through a next array, so the build allocates no per-row values — and then
// stream the probe side. Because the inputs are duplicate-free sets and a
// natural-join output row is determined by its (r-row, s-row) pair projected
// onto r.attrs ∪ s.attrs, the output is itself duplicate-free and is emitted
// straight into the flat value array with no membership checks; the output's
// own index is built lazily if it is ever probed.

const (
	// joinCheckEvery is how many units of work — candidate pairs probed,
	// rows hashed or counted, pair estimates — run between context polls,
	// per goroutine (the cancellation discipline shared with the search
	// engines' cancelChecker). 1,024 units take 20-50 µs, the same slice as
	// a search lane's poll interval, so a join racing the searchers gets
	// no longer turns than they do.
	joinCheckEvery = 1024
	// parallelProbeMin is the probe-side row count above which the probe
	// loop is partitioned across GOMAXPROCS workers. A var so tests can
	// force both paths.
	parallelProbeMinDefault = 8192
)

var parallelProbeMin = parallelProbeMinDefault

// yieldQuantum is the least time a poller's goroutine runs between two
// yields of the processor: the same quantum, for the same reason, as the
// search engines' cancelChecker in internal/csp. Yielding at every poll
// would cost a join running alone a processor wake-up every few tens of
// microseconds.
const yieldQuantum = 100 * time.Microsecond

// poller amortizes context polls over a countdown of work units. A poll
// also yields the processor (runtime.Gosched) once the goroutine has run
// for yieldQuantum, and the first poll always yields, so a join racing
// other goroutines on fewer processors shares time in short slices instead
// of the runtime's ~10 ms preemption turns. A poller over a nil context
// (the zero poller) never polls.
type poller struct {
	ctx       context.Context
	countdown int
	resumed   time.Time // when the goroutine last returned from a yield
}

func newPoller(ctx context.Context) *poller {
	return &poller{ctx: ctx, countdown: joinCheckEvery}
}

// tick counts one unit of work; once every joinCheckEvery units it yields
// (if the quantum has passed) and returns the context's error. The
// countdown is small enough to inline into the kernel loops; poll is the
// out-of-line rest.
func (p *poller) tick() error {
	if p.ctx == nil {
		return nil
	}
	p.countdown--
	if p.countdown > 0 {
		return nil
	}
	return p.poll()
}

func (p *poller) poll() error {
	p.countdown = joinCheckEvery
	if time.Since(p.resumed) >= yieldQuantum {
		runtime.Gosched()
		p.resumed = time.Now()
	}
	return p.ctx.Err()
}

// joinTable is the transient build-side hash table: head maps a column-hash
// to the last build row with that hash, next chains earlier ones.
type joinTable struct {
	head map[uint64]int32
	next []int32
}

// buildJoinTable hashes rows of s on the given columns, ticking pl once per
// row.
func buildJoinTable(pl *poller, s *Relation, cols []int) (joinTable, error) {
	t := joinTable{head: make(map[uint64]int32, s.n), next: make([]int32, s.n)}
	for i := 0; i < s.n; i++ {
		if err := pl.tick(); err != nil {
			return joinTable{}, err
		}
		h := hashRowCols(s.data, i*s.k, cols)
		prev, ok := t.head[h]
		if !ok {
			prev = -1
		}
		t.next[i] = prev
		t.head[h] = int32(i)
	}
	return t, nil
}

// Join returns the natural join of r and s: the schema is r's attributes
// followed by the attributes of s that do not occur in r, and a result tuple
// exists for every pair of r/s tuples that agree on all shared attributes.
// Implemented as a (parallel, for large probe sides) hash join on the shared
// attributes.
func (r *Relation) Join(s *Relation) *Relation {
	out, _ := r.joinCtx(nil, s)
	return out
}

// joinCtx is Join with cooperative cancellation: when ctx is non-nil, the
// build and probe loops poll it every joinCheckEvery rows or candidate pairs
// (see poller, which also yields the processor) and return ctx's error, so
// a cancelled caller is not stuck behind one exploding intermediate result. It is also the kernel's metering point: probe/build/
// output row counts and arena bytes are flushed to the obs registry once per
// call, and a span records the join's shape when tracing is active.
func (r *Relation) joinCtx(ctx context.Context, s *Relation) (*Relation, error) {
	sp := obs.StartChild(obs.SpanFrom(ctx), "relation.join")
	out, err := r.joinImpl(ctx, s)
	if obs.Enabled() {
		obsJoinCalls.Inc()
		obsJoinProbeRows.Add(int64(r.n))
		obsJoinBuildRows.Add(int64(s.n))
		if out != nil {
			obsJoinOutputRows.Add(int64(out.n))
			obsJoinArenaBytes.Add(int64(len(out.data)) * intBytes)
		}
	}
	if sp != nil {
		sp.SetInt("left_rows", int64(r.n))
		sp.SetInt("right_rows", int64(s.n))
		if out != nil {
			sp.SetInt("out_rows", int64(out.n))
		}
		if err != nil {
			sp.SetInt("aborted", 1)
		}
		sp.End()
	}
	return out, err
}

func (r *Relation) joinImpl(ctx context.Context, s *Relation) (*Relation, error) {
	common, sOnly := sharedAttrs(r, s)

	outAttrs := make([]string, 0, len(r.attrs)+len(sOnly))
	outAttrs = append(outAttrs, r.attrs...)
	outAttrs = append(outAttrs, sOnly...)
	out := MustNew(outAttrs...)
	if r.n == 0 || s.n == 0 {
		return out, nil
	}
	if out.k == 0 {
		// Both operands are 0-ary and nonempty: the join is the unit
		// relation containing the empty tuple.
		out.n = 1
		return out, nil
	}

	rCols := make([]int, len(common))
	sCols := make([]int, len(common))
	for i, a := range common {
		rCols[i] = r.pos[a]
		sCols[i] = s.pos[a]
	}
	sOnlyPos := make([]int, len(sOnly))
	for i, a := range sOnly {
		sOnlyPos[i] = s.pos[a]
	}

	pl := newPoller(ctx)
	build, err := buildJoinTable(pl, s, sCols)
	if err != nil {
		return nil, err
	}

	workers := runtime.GOMAXPROCS(0)
	if r.n < parallelProbeMin || workers < 2 {
		data, rows, err := joinProbeRange(pl, r, s, build, rCols, sCols, sOnlyPos, 0, r.n)
		if err != nil {
			return nil, err
		}
		out.data, out.n = data, rows
		return out, nil
	}

	// Parallel partitioned probe: contiguous probe-row ranges per worker,
	// each emitting into its own arena. Ranges partition r's (distinct)
	// rows, so the per-partition outputs are pairwise disjoint and merge
	// dedup-free in partition order, keeping the output deterministic.
	if workers > r.n/1024 {
		workers = r.n / 1024
	}
	type part struct {
		data []int
		rows int
		err  error
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	chunk := (r.n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > r.n {
			hi = r.n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			data, rows, err := joinProbeRange(newPoller(ctx), r, s, build, rCols, sCols, sOnlyPos, lo, hi)
			parts[w] = part{data: data, rows: rows, err: err}
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
		total += p.rows
	}
	out.data = make([]int, 0, total*out.k)
	for _, p := range parts {
		out.data = append(out.data, p.data...)
	}
	out.n = total
	return out, nil
}

// joinProbeRange probes rows lo..hi of r against the build table over s and
// returns the emitted flat rows, ticking pl once per candidate pair.
func joinProbeRange(pl *poller, r, s *Relation, build joinTable, rCols, sCols, sOnlyPos []int, lo, hi int) ([]int, int, error) {
	outK := r.k + len(sOnlyPos)
	buf := make([]int, 0, (hi-lo)*outK)
	rows := 0
	for i := lo; i < hi; i++ {
		rBase := i * r.k
		h := hashRowCols(r.data, rBase, rCols)
		for id := lookupHead(build.head, h); id >= 0; id = build.next[id] {
			if err := pl.tick(); err != nil {
				return nil, 0, err
			}
			sBase := int(id) * s.k
			match := true
			for c := range rCols {
				if r.data[rBase+rCols[c]] != s.data[sBase+sCols[c]] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			buf = append(buf, r.data[rBase:rBase+r.k]...)
			for _, j := range sOnlyPos {
				buf = append(buf, s.data[sBase+j])
			}
			rows++
		}
	}
	return buf, rows, nil
}

func lookupHead(head map[uint64]int32, h uint64) int32 {
	if id, ok := head[h]; ok {
		return id
	}
	return -1
}

// Semijoin returns the tuples of r that join with at least one tuple of s on
// the shared attributes (r ⋉ s). If r and s share no attributes, the result
// is r when s is nonempty and empty when s is empty (consistent with the
// Cartesian-product reading of natural join).
func (r *Relation) Semijoin(s *Relation) *Relation {
	out := r.semijoinImpl(s)
	if obs.Enabled() {
		obsSemijoinCalls.Inc()
		obsSemijoinProbeRows.Add(int64(r.n))
		obsSemijoinKeptRows.Add(int64(out.n))
	}
	return out
}

func (r *Relation) semijoinImpl(s *Relation) *Relation {
	common, _ := sharedAttrs(r, s)
	if len(common) == 0 {
		if s.Empty() {
			return MustNew(r.attrs...)
		}
		return r.Clone()
	}
	out := MustNew(r.attrs...)
	if r.n == 0 || s.n == 0 {
		return out
	}
	rCols := make([]int, len(common))
	sCols := make([]int, len(common))
	for i, a := range common {
		rCols[i] = r.pos[a]
		sCols[i] = s.pos[a]
	}
	build, _ := buildJoinTable(&poller{}, s, sCols) // the zero poller never fails
	out.data = make([]int, 0, r.n*r.k/2)
	for i := 0; i < r.n; i++ {
		rBase := i * r.k
		h := hashRowCols(r.data, rBase, rCols)
		for id := lookupHead(build.head, h); id >= 0; id = build.next[id] {
			sBase := int(id) * s.k
			match := true
			for c := range rCols {
				if r.data[rBase+rCols[c]] != s.data[sBase+sCols[c]] {
					match = false
					break
				}
			}
			if match {
				// A subset of r's distinct rows is distinct: emit unchecked.
				out.appendUnique(r.data[rBase : rBase+r.k])
				break
			}
		}
	}
	return out
}
