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

	sup      []*Supports
	watchers [][]int32 // (v*Dom + val) -> ids of constraints with that value
	degree   []int

	queue   []int32
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

// newBitSearcher compiles the instance's supports and watch lists. The
// compilation ticks the lane's cancelChecker like the search does (see
// compileSupports), so a lane cancelled during set-up stops within one poll
// interval with s.aborted set, and run then returns Aborted at once.
func newBitSearcher(ctx context.Context, p *Instance, opts Options) *bitSearcher {
	s := &bitSearcher{p: p, opts: opts, learn: opts.Learn, curCon: -1, cancel: newCancelChecker(ctx), start: time.Now()}
	s.span = obs.StartChild(obs.SpanFrom(ctx), "csp.solve")
	s.span.SetInt("vars", int64(p.Vars))
	s.span.SetInt("dom", int64(p.Dom))
	s.span.SetInt("constraints", int64(len(p.Constraints)))
	s.d = NewDomainSet(p)
	s.assign = make([]int, p.Vars)
	for v := range s.assign {
		s.assign[v] = -1
	}
	s.sup = make([]*Supports, len(p.Constraints))
	s.inQueue = make([]bool, len(p.Constraints))
	s.watchers = make([][]int32, p.Vars*p.Dom)
	s.degree = make([]int, p.Vars)
	maxWords := 1
	for cid, con := range p.Constraints {
		sp, ok := compileSupports(con, p.Dom, &s.cancel)
		if !ok {
			s.aborted = true
			return s
		}
		s.sup[cid] = sp
		if sp.words > maxWords {
			maxWords = sp.words
		}
		for i, v := range con.Scope {
			if !scopeRepeat(con.Scope, i) {
				s.degree[v]++
			}
			for val := 0; val < p.Dom; val++ {
				if !sp.HasValue(i, val) {
					continue
				}
				w := s.watchers[v*p.Dom+val]
				// Repeated scope positions of one variable visit the same
				// watch list back to back; skip the adjacent duplicate.
				if n := len(w); n > 0 && w[n-1] == int32(cid) {
					continue
				}
				s.watchers[v*p.Dom+val] = append(w, int32(cid))
			}
		}
	}
	s.scratch = make([]uint64, 2*maxWords)
	s.onPruneFn = s.pruneFromRevise
	if s.learn {
		s.ng = newNogoodStore(p.Vars, p.Dom)
		s.vweight = make([]float64, p.Vars)
	}
	return s
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

	if s.aborted || s.cancel.cancelledNow() {
		s.aborted = true
		return Result{Aborted: true, Stats: s.stats}
	}
	// Root propagation (the engine is MAC: GAC always holds at decisions).
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
	if !ok {
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
		s.stats.Nodes++
		if s.opts.NodeLimit > 0 && s.stats.Nodes > s.opts.NodeLimit {
			s.aborted = true
			return true
		}
		if s.cancel.cancelled() {
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
	s.trail = append(s.trail, trailEntry{u, val})
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
	for _, cid := range s.watchers[u*s.p.Dom+val] {
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
		if s.cancel.cancelled() {
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
		if len(s.queue) == 0 {
			return true
		}
		cid := s.queue[0]
		s.queue = s.queue[1:]
		s.inQueue[cid] = false
		if s.sup[cid].hasRepeat {
			// A repeated-scope constraint's own prunes change its live set;
			// let it re-enqueue itself until a true fixpoint.
			s.curCon = -1
		} else {
			s.curCon = cid
		}
		_, ok := s.sup[cid].Revise(s.d, s.scratch, s.onPruneFn)
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
	for _, cid := range s.queue {
		s.inQueue[cid] = false
	}
	s.queue = s.queue[:0]
	s.singles = s.singles[:0]
	s.curCon = -1
}

// undo restores the trail to mark and unassigns v.
func (s *bitSearcher) undo(v int, mark int) {
	for len(s.trail) > mark {
		e := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.d.Restore(e.v, e.val)
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
