package csp

import (
	"context"
	"math/bits"
	"time"

	"csdb/internal/obs"
)

// bitSearcher is the bitset MAC engine: DomainSet domains (domain.go),
// per-constraint compiled support masks (support.go), and watched-value
// propagation — pruning (v, val) re-enqueues only the constraints whose
// table actually carries that value, which is the only way the constraint's
// live-tuple set can change. Variable/value ordering and propagation
// strength match the seed searcher exactly (GAC closures are unique), so
// both engines walk the same tree and the seed stays a node-for-node
// differential oracle. With opts.Learn the engine additionally records
// decision nogoods on conflicts and restarts on a Luby schedule
// (nogood.go, restart.go).
type bitSearcher struct {
	p    *Instance
	opts Options

	d         *DomainSet
	assign    []int
	nAssigned int

	sup []Supports
	// The watch lists in CSR form: the ids of the constraints whose table
	// carries value val at some scope position of v are
	// watchIDs[watchOff[k]:watchOff[k+1]] for k = v*Dom + val, ascending.
	watchOff []int32
	watchIDs []int32
	degree   []int

	// queue holds the constraints to revise from queue[qHead] on, in FIFO
	// order; it rewinds to its start whenever it drains, so its array is
	// reused from wave to wave.
	queue   []int32
	qHead   int
	inQueue []bool
	curCon  int32 // constraint being revised (no self-re-enqueue), -1 otherwise
	scratch []uint64
	// onPruneFn is the Revise callback, bound once so the propagation loop
	// does not allocate a closure per revision.
	onPruneFn func(v, val int) bool

	trail []trailEntry

	// Learning state, used only when opts.Learn is set.
	learn      bool
	ng         *nogoodStore
	decisions  []nglit
	singles    []int32 // vars newly narrowed to singletons (nogood triggers)
	conflicts  int64   // conflicts since the current restart
	cutoff     int64   // conflict budget of the current restart (0 = none)
	restartNow bool
	rootMark   int
	// vweight is the dom/wdeg conflict heuristic: every variable in the
	// scope of a constraint that wipes out a domain gains weight, and the
	// learning engine branches on the unassigned variable minimizing
	// size/weight. Weights persist across restarts, so each episode starts
	// better informed than the last — the heuristic's synergy with the Luby
	// schedule. Nil unless learning.
	vweight []float64

	cancel  cancelChecker
	start   time.Time // entry into newBitSearcher: Stats.Duration covers set-up
	stats   Stats
	found   int64
	limit   int64
	yield   func([]int) bool
	aborted bool
	stopped bool

	span       *obs.Span
	searchSpan *obs.Span
}

// newBitSearcher opens a solve's span and sets the engine up for it.
func newBitSearcher(ctx context.Context, p *Instance, opts Options) *bitSearcher {
	sp := startSolveSpan(ctx, p)
	s := setUpBitSearcher(ctx, p, opts)
	s.span = sp
	return s
}

// setUpBitSearcher compiles the instance's supports and watch lists. The
// compilation ticks the lane's cancelChecker like the search does (see
// compileSupports), so a lane cancelled during set-up stops within one poll
// interval with s.aborted set, and run then returns Aborted at once. Beyond
// the masks, one per constraint, set-up allocates a fixed handful of
// arrays: the domains, the supports, the two watch arrays and a trail as
// long as the search can make it.
func setUpBitSearcher(ctx context.Context, p *Instance, opts Options) *bitSearcher {
	s := &bitSearcher{p: p, opts: opts, learn: opts.Learn, curCon: -1, cancel: newCancelChecker(ctx), start: time.Now()}
	s.d = NewDomainSet(p)
	s.assign = make([]int, p.Vars)
	for v := range s.assign {
		s.assign[v] = -1
	}
	s.sup = make([]Supports, len(p.Constraints))
	s.degree = make([]int, p.Vars)
	maxWords := 1
	for cid, con := range p.Constraints {
		if !compileSupports(&s.sup[cid], con, p.Dom, &s.cancel) {
			s.aborted = true
			return s
		}
		maxWords = max(maxWords, s.sup[cid].words)
		for i, v := range con.Scope {
			if !scopeRepeat(con.Scope, i) {
				s.degree[v]++
			}
		}
	}
	s.buildWatches()
	s.inQueue = make([]bool, len(p.Constraints))
	s.queue = make([]int32, 0, len(p.Constraints))
	s.scratch = make([]uint64, 2*maxWords)
	// Every trail entry is a value removed and not yet restored, and only
	// a wipeout empties a domain, after which the search undoes before it
	// removes again: each variable but one keeps a value.
	trail := 1
	for _, n := range s.d.size {
		trail += max(n-1, 0)
	}
	s.trail = make([]trailEntry, 0, trail)
	s.onPruneFn = s.pruneFromRevise
	if s.learn {
		s.ng = newNogoodStore(p.Vars, p.Dom)
		s.vweight = make([]float64, p.Vars)
	}
	return s
}

// buildWatches lays out the watch lists from the compiled supports in two
// passes over them, a count and a fill: constraint cid watches (v, val)
// when its table carries val at a scope position of v, once however often
// v repeats in its scope.
func (s *bitSearcher) buildWatches() {
	dom := s.p.Dom
	off := make([]int32, s.p.Vars*dom+1)
	var ids []int32
	for fill := range 2 {
		for cid := range s.sup {
			sp := &s.sup[cid]
			for i, v := range sp.scope {
				for val := 0; val < dom; val++ {
					if !sp.HasValue(i, val) || sp.watchedEarlier(i, val) {
						continue
					}
					if k := v*dom + val; fill == 0 {
						off[k+1]++
					} else {
						ids[off[k]] = int32(cid)
						off[k]++
					}
				}
			}
		}
		if fill == 0 {
			for k := 1; k < len(off); k++ {
				off[k] += off[k-1]
			}
			ids = make([]int32, off[len(off)-1])
		}
	}
	// Filling list k advanced off[k] from list k's start to its end, which
	// is list k+1's start: shift the offsets back by one list.
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	s.watchOff, s.watchIDs = off, ids
}

func (s *bitSearcher) run(limit int64, yield func([]int) bool) Result {
	res := s.solve(limit, yield)
	res.Stats.Duration = time.Since(s.start)
	res.Stats.Strategy = s.opts.label()
	s.finishObs(res)
	return res
}

func (s *bitSearcher) solve(limit int64, yield func([]int) bool) Result {
	s.limit = limit
	s.yield = yield

	// The engine is MAC: GAC always holds at decisions.
	if !s.propagateRoot() {
		return Result{Aborted: s.aborted, Stats: s.stats}
	}
	s.rootMark = len(s.trail)

	s.searchSpan = obs.StartChild(s.span, "csp.search")
	var solution []int
	var sol bool
	if s.learn {
		sol = s.searchWithRestarts(&solution)
	} else {
		sol = s.search(&solution)
	}
	if s.searchSpan != nil {
		s.searchSpan.SetInt("nodes", s.stats.Nodes)
		s.searchSpan.End()
	}
	if sol && solution != nil {
		return Result{Found: true, Solution: solution, Stats: s.stats}
	}
	return Result{Aborted: s.aborted, Stats: s.stats}
}

// propagateRoot polls the context and, unless it or the set-up was
// cancelled, revises every constraint to the root GAC fixpoint. It reports
// false on a wipeout or a cancellation; s.aborted tells them apart.
func (s *bitSearcher) propagateRoot() bool {
	if s.aborted || s.cancel.cancelledNow() {
		s.aborted = true
		return false
	}
	sp := obs.StartChild(s.span, "csp.propagate")
	sp.SetStr("phase", "root")
	before := s.stats.Prunings
	for cid := range s.sup {
		s.inQueue[cid] = true
		s.queue = append(s.queue, int32(cid))
	}
	ok := s.propagate()
	sp.SetInt("prunings", s.stats.Prunings-before)
	sp.End()
	return ok
}

// GAC establishes generalized arc consistency on the instance as a
// standalone step: every value without a supporting tuple under the
// current domains is removed, to a fixpoint. Arc consistency on binary
// networks is the k=2 case of strong k-consistency, and GAC is its
// generalization to any arity. GAC runs the bitset engine's set-up and root
// propagation, the code a MAC solve runs before its first decision, and
// records no solve: when tracing, its one csp.propagate span nests under
// ctx's span.
//
// It returns the pruned domains and whether every domain survives; an
// empty declared domain is inconsistent. GAC closures are unique, so any
// GAC algorithm reaches these domains. The propagation polls ctx like a
// search lane; the error is ctx's, and then no verdict is implied. The
// input is not modified.
func GAC(ctx context.Context, p *Instance) (domains [][]int, consistent bool, err error) {
	s := setUpBitSearcher(ctx, p, Options{})
	s.span = obs.SpanFrom(ctx)
	ok := s.propagateRoot()
	if s.aborted {
		return nil, false, ctx.Err()
	}
	domains = make([][]int, p.Vars)
	for v := range domains {
		if domains[v] = s.d.Values(v, nil); len(domains[v]) == 0 {
			ok = false
		}
	}
	if !ok {
		return nil, false, nil
	}
	return domains, true, nil
}

// search mirrors the seed searcher's contract: true means stop entirely
// (solution in single-solution mode, limit reached, abort, or — learning
// only — a pending restart), false means the subtree is exhausted.
func (s *bitSearcher) search(out *[]int) bool {
	if s.nAssigned == s.p.Vars {
		sol := make([]int, s.p.Vars)
		copy(sol, s.assign)
		s.found++
		if s.yield != nil {
			if !s.yield(sol) {
				s.stopped = true
				return true
			}
			if s.limit > 0 && s.found >= s.limit {
				s.stopped = true
				return true
			}
			return false // keep enumerating
		}
		*out = sol
		return true
	}

	v := s.pickVar()
	for val := s.d.Next(v, 0); val >= 0; val = s.d.Next(v, val+1) {
		if s.opts.NodeLimit > 0 && s.stats.Nodes >= s.opts.NodeLimit {
			s.aborted = true
			return true
		}
		s.stats.Nodes++
		if s.cancel.cancelledAfter(1) {
			s.aborted = true
			return true
		}
		mark := len(s.trail)
		if s.tryAssign(v, val) {
			if s.search(out) {
				return true
			}
		} else if s.learn && !s.aborted {
			s.onConflict()
		}
		s.undo(v, mark)
		if s.aborted || s.restartNow {
			return true
		}
		s.stats.Backtracks++
	}
	return false
}

// tryAssign assigns v=val, narrows the domain to the singleton, and
// propagates to a GAC fixpoint. On failure the caller must undo.
func (s *bitSearcher) tryAssign(v, val int) bool {
	s.assign[v] = val
	s.nAssigned++
	if s.nAssigned > s.stats.MaxDepth {
		s.stats.MaxDepth = s.nAssigned
	}
	if s.learn {
		s.decisions = append(s.decisions, nglit{int32(v), int32(val)})
	}
	row := s.d.row(v)
	for w := 0; w < len(row); w++ {
		word := row[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			if other := w<<6 + b; other != val {
				// Narrowing cannot wipe out (val itself survives).
				s.removeValue(v, other, false)
			}
		}
	}
	if s.searchSpan != nil {
		return s.tracePropagate(v)
	}
	return s.propagate()
}

// tracePropagate wraps one per-assignment propagation wave in a span nested
// under the search span; only reached when tracing is active.
func (s *bitSearcher) tracePropagate(v int) bool {
	sp := obs.StartChild(s.searchSpan, "csp.propagate")
	sp.SetInt("var", int64(v))
	before := s.stats.Prunings
	ok := s.propagate()
	sp.SetInt("prunings", s.stats.Prunings-before)
	if !ok {
		sp.SetInt("wipeout", 1)
	}
	sp.End()
	return ok
}

// removeValue deletes (u, val), records it on the trail, counts it as a
// pruning when it came from propagation (decision narrowing is not a
// pruning, matching the seed), wakes the value's watchers, and queues the
// variable for nogood entailment checks when it became a singleton. It
// reports false on a wipeout.
func (s *bitSearcher) removeValue(u, val int, fromRevise bool) bool {
	if !s.d.Remove(u, val) {
		return true
	}
	s.trail = append(s.trail, trailEntry{int32(u), int32(val)})
	if fromRevise {
		s.stats.Prunings++
	}
	switch s.d.size[u] {
	case 0:
		return false
	case 1:
		if s.learn {
			s.singles = append(s.singles, int32(u))
		}
	}
	k := u*s.p.Dom + val
	for _, cid := range s.watchIDs[s.watchOff[k]:s.watchOff[k+1]] {
		if cid != s.curCon && !s.inQueue[cid] {
			s.inQueue[cid] = true
			s.queue = append(s.queue, cid)
		}
	}
	return true
}

// pruneFromRevise is the Revise callback: a propagation-caused removal.
func (s *bitSearcher) pruneFromRevise(v, val int) bool {
	return s.removeValue(v, val, true)
}

// propagate drains the revision queue (and, when learning, the singleton
// queue that triggers nogood unit propagation) to a fixpoint. It returns
// false on a conflict — domain wipeout, nogood violation, or cancellation
// (s.aborted distinguishes the latter) — with the queues cleared.
func (s *bitSearcher) propagate() bool {
	for {
		// A revision is charged by its mask words (see cancelCheckInterval).
		cost := 1
		if len(s.singles) == 0 && s.qHead < len(s.queue) {
			cost = s.sup[s.queue[s.qHead]].words
		}
		if s.cancel.cancelledAfter(cost) {
			s.aborted = true
			s.clearQueue()
			return false
		}
		if n := len(s.singles); n > 0 {
			u := s.singles[n-1]
			s.singles = s.singles[:n-1]
			if !s.ngOnSingleton(int(u)) {
				s.clearQueue()
				return false
			}
			continue
		}
		if s.qHead == len(s.queue) {
			s.queue, s.qHead = s.queue[:0], 0
			return true
		}
		cid := s.queue[s.qHead]
		s.qHead++
		s.inQueue[cid] = false
		if s.sup[cid].hasRepeat {
			// A repeated-scope constraint's own prunes change its live set;
			// let it re-enqueue itself until a true fixpoint.
			s.curCon = -1
		} else {
			s.curCon = cid
		}
		ok := s.sup[cid].Revise(s.d, s.scratch, s.onPruneFn)
		s.curCon = -1
		if !ok {
			if s.vweight != nil && !s.aborted {
				for _, v := range s.sup[cid].scope {
					s.vweight[v]++
				}
			}
			s.clearQueue()
			return false
		}
	}
}

// clearQueue resets the propagation queues after a conflict so the next
// wave starts clean.
func (s *bitSearcher) clearQueue() {
	for _, cid := range s.queue[s.qHead:] {
		s.inQueue[cid] = false
	}
	s.queue, s.qHead = s.queue[:0], 0
	s.singles = s.singles[:0]
	s.curCon = -1
}

// undo restores the trail to mark and unassigns v.
func (s *bitSearcher) undo(v int, mark int) {
	for len(s.trail) > mark {
		e := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.d.Restore(int(e.v), int(e.val))
	}
	if s.assign[v] >= 0 {
		s.assign[v] = -1
		s.nAssigned--
		if s.learn {
			s.decisions = s.decisions[:len(s.decisions)-1]
		}
	}
}

// pickVar is the seed heuristic verbatim: MRV on the popcount cache with
// degree then index tie-breaks, or lexicographic order. The learning engine
// instead uses dom/wdeg — smallest domain-size-to-conflict-weight ratio —
// which is deterministic (ties break toward MRV, then lower index) and
// steers each restart episode toward the variables that caused past
// wipeouts.
func (s *bitSearcher) pickVar() int {
	if s.learn {
		best, bestSize := -1, 0
		var bestScore float64
		for v := 0; v < s.p.Vars; v++ {
			if s.assign[v] >= 0 {
				continue
			}
			score := float64(s.d.size[v]) / (1 + s.vweight[v])
			if best < 0 || score < bestScore ||
				(score == bestScore && s.d.size[v] < bestSize) {
				best, bestScore, bestSize = v, score, s.d.size[v]
			}
		}
		if best < 0 {
			panic("csp: pickVar with all variables assigned")
		}
		return best
	}
	if s.opts.VarOrder == Lex {
		for v := 0; v < s.p.Vars; v++ {
			if s.assign[v] < 0 {
				return v
			}
		}
		panic("csp: pickVar with all variables assigned")
	}
	best, bestSize, bestDeg := -1, 1<<30, -1
	for v := 0; v < s.p.Vars; v++ {
		if s.assign[v] >= 0 {
			continue
		}
		if s.d.size[v] < bestSize || (s.d.size[v] == bestSize && s.degree[v] > bestDeg) {
			best, bestSize, bestDeg = v, s.d.size[v], s.degree[v]
		}
	}
	if best < 0 {
		panic("csp: pickVar with all variables assigned")
	}
	return best
}

// finishObs flushes the solve through the same registry funnel as the seed
// searcher (registry deltas must equal merged Stats) and closes the spans.
func (s *bitSearcher) finishObs(res Result) {
	flushSolveObs(s.span, res)
}
