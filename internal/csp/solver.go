package csp

import (
	"context"
	"fmt"
	"time"

	"csdb/internal/obs"
)

// Algorithm selects the search procedure used by Solve.
type Algorithm int

const (
	// MAC maintains generalized arc consistency (GAC-3) after every
	// assignment. The default and generally the strongest option.
	MAC Algorithm = iota
	// FC is forward checking: after each assignment, values of neighboring
	// unassigned variables that have lost all support are pruned.
	FC
	// BT is chronological backtracking with checking of fully assigned
	// constraints only. The weakest baseline.
	BT
)

func (a Algorithm) String() string {
	switch a {
	case MAC:
		return "MAC"
	case FC:
		return "FC"
	case BT:
		return "BT"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// VarOrder selects the variable-ordering heuristic.
type VarOrder int

const (
	// MRV picks the unassigned variable with the fewest remaining values,
	// breaking ties by constraint degree.
	MRV VarOrder = iota
	// Lex assigns variables in index order.
	Lex
)

func (o VarOrder) String() string {
	switch o {
	case MRV:
		return "MRV"
	case Lex:
		return "Lex"
	}
	return fmt.Sprintf("VarOrder(%d)", int(o))
}

// Options configures Solve.
type Options struct {
	Algorithm Algorithm
	VarOrder  VarOrder
	// NodeLimit aborts the search after this many search nodes (0 = no
	// limit). An aborted search reports Found=false, Aborted=true. The limit
	// is local to one search: every strategy of a Portfolio counts its own
	// nodes against its own limit — it is a per-strategy budget, not a
	// global one.
	NodeLimit int64
	// RootConsistency, when true, runs one GAC pass before search even for
	// BT/FC (MAC always does).
	RootConsistency bool
	// Learn selects the learning engine: bitset MAC propagation plus
	// restart-based nogood recording on a Luby schedule (see restart.go).
	// It overrides Algorithm (the learning engine always maintains GAC) and
	// decides single solutions only — SolveAll ignores it and enumerates
	// with the non-learning bitset engine.
	Learn bool
}

// label names the strategy an Options value selects, for Stats attribution.
func (o Options) label() string {
	if o.Learn {
		// The learning engine branches by conflict-weighted degree
		// (dom/wdeg), not by the configured VarOrder.
		return "Learn+DomWdeg"
	}
	return o.Algorithm.String() + "+" + o.VarOrder.String()
}

// Stats records search effort.
type Stats struct {
	Nodes      int64 // assignments tried
	Backtracks int64 // dead ends
	Prunings   int64 // domain values removed by propagation
	// MaxDepth is the largest number of simultaneously assigned variables
	// reached during the search (0 for solvers that do no assignment, such
	// as join evaluation).
	MaxDepth int
	// Duration is the wall-clock time of the solve call.
	Duration time.Duration
	// Strategy attributes the stats to the procedure that produced them
	// (e.g. "MAC+MRV", "CBJ", "Join", "FC+Lex", "Learn+DomWdeg").
	Strategy string
	// Restarts, NogoodsRecorded and NogoodHits describe the learning
	// engine's effort (zero for every other strategy): Luby restarts taken,
	// nogoods recorded from conflicts, and propagation events where a
	// learned nogood pruned a value or detected a conflict.
	Restarts        int64
	NogoodsRecorded int64
	NogoodHits      int64
}

// merge accumulates counters from another Stats into s: additive for the
// effort counters, max for depth and duration. Strategy attribution is kept
// only when both sides agree.
func (s *Stats) merge(o Stats) {
	s.Nodes += o.Nodes
	s.Backtracks += o.Backtracks
	s.Prunings += o.Prunings
	s.Restarts += o.Restarts
	s.NogoodsRecorded += o.NogoodsRecorded
	s.NogoodHits += o.NogoodHits
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
	if o.Duration > s.Duration {
		s.Duration = o.Duration
	}
	if s.Strategy != o.Strategy {
		s.Strategy = ""
	}
}

// Result is the outcome of a Solve call.
type Result struct {
	Found    bool
	Solution []int
	Aborted  bool
	Stats    Stats
}

// Solve searches for one solution of the instance.
func Solve(p *Instance, opts Options) Result {
	return SolveCtx(context.Background(), p, opts)
}

// SolveCtx is Solve under a context: the search polls ctx every
// cancelCheckInterval nodes (and at propagation boundaries) and returns
// Aborted=true once the context is cancelled or its deadline passes.
//
// MAC solves (and opts.Learn) run on the bitset engine (bitsolver.go); BT
// and FC keep the seed searcher, whose domain representation their
// propagation is written against.
func SolveCtx(ctx context.Context, p *Instance, opts Options) Result {
	if opts.Learn || opts.Algorithm == MAC {
		b := newBitSearcher(ctx, p, opts)
		return b.run(1, nil)
	}
	s := newSearcher(ctx, p, opts)
	return s.run(1, nil)
}

// SolveSeed runs the seed [][]bool searcher regardless of algorithm. It is
// kept (like relation's naive kernel) as the differential oracle for the
// bitset and learning engines: same heuristics, tuple-scan propagation.
func SolveSeed(p *Instance, opts Options) Result {
	return SolveSeedCtx(context.Background(), p, opts)
}

// SolveSeedCtx is SolveSeed under a context.
func SolveSeedCtx(ctx context.Context, p *Instance, opts Options) Result {
	opts.Learn = false
	s := newSearcher(ctx, p, opts)
	return s.run(1, nil)
}

// SolveAll enumerates solutions, invoking yield for each; enumeration stops
// when yield returns false or limit (>0) solutions have been produced.
// It returns the number of solutions yielded and the search stats.
func SolveAll(p *Instance, opts Options, limit int64, yield func([]int) bool) (int64, Stats) {
	return SolveAllCtx(context.Background(), p, opts, limit, yield)
}

// SolveAllCtx is SolveAll under a context (see SolveCtx). Learning is a
// decision-mode optimization, so opts.Learn enumerates on the plain bitset
// MAC engine.
func SolveAllCtx(ctx context.Context, p *Instance, opts Options, limit int64, yield func([]int) bool) (int64, Stats) {
	if opts.Learn || opts.Algorithm == MAC {
		opts.Learn = false
		b := newBitSearcher(ctx, p, opts)
		res := b.run(limit, yield)
		return b.found, res.Stats
	}
	s := newSearcher(ctx, p, opts)
	res := s.run(limit, yield)
	return s.found, res.Stats
}

// CountSolutions counts solutions up to limit (0 = unlimited).
func CountSolutions(p *Instance, limit int64) int64 {
	n, _ := SolveAll(p, Options{}, limit, func([]int) bool { return true })
	return n
}

// searcher holds the mutable state of one backtracking search.
type searcher struct {
	p    *Instance
	opts Options

	dom       [][]bool // dom[v][val]: val still allowed for v
	size      []int    // remaining domain size per variable
	assign    []int    // current assignment, -1 = unassigned
	nAssigned int

	// watch[v] lists the constraints whose scope contains v.
	watch [][]*Constraint
	// degree[v] is the number of constraints on v (static, for tie-breaks).
	degree []int

	trail []trailEntry // pruned (var, val) pairs for undo

	cancel  cancelChecker
	start   time.Time // entry into newSearcher: Stats.Duration covers set-up
	stats   Stats
	found   int64
	limit   int64
	yield   func([]int) bool
	aborted bool
	stopped bool

	// Tracing spans, nil unless obs tracing is active: span covers the whole
	// solve, searchSpan the search phase. Propagation waves nest under
	// whichever phase triggered them.
	span       *obs.Span
	searchSpan *obs.Span
}

// trailEntry is one removed (variable, value) pair; int32 halves the
// bitset engine's trail, which set-up sizes for the whole search.
type trailEntry struct{ v, val int32 }

func newSearcher(ctx context.Context, p *Instance, opts Options) *searcher {
	s := &searcher{p: p, opts: opts, cancel: newCancelChecker(ctx), start: time.Now()}
	s.span = startSolveSpan(ctx, p)
	s.dom = make([][]bool, p.Vars)
	s.size = make([]int, p.Vars)
	s.assign = make([]int, p.Vars)
	flat := make([]bool, p.Vars*p.Dom)
	for v := 0; v < p.Vars; v++ {
		s.assign[v] = -1
		s.dom[v] = flat[v*p.Dom : (v+1)*p.Dom : (v+1)*p.Dom]
		if p.Domains == nil || p.Domains[v] == nil {
			for val := range s.dom[v] {
				s.dom[v][val] = true
			}
			s.size[v] = p.Dom
			continue
		}
		for _, val := range p.Domains[v] {
			if val >= 0 && val < p.Dom && !s.dom[v][val] {
				s.dom[v][val] = true
				s.size[v]++
			}
		}
	}
	// The watch lists are carved from one array, sized by a first pass
	// that counts the degrees.
	s.degree = make([]int, p.Vars)
	total := 0
	for _, con := range p.Constraints {
		for i, v := range con.Scope {
			if !scopeRepeat(con.Scope, i) {
				s.degree[v]++
				total++
			}
		}
	}
	s.watch = make([][]*Constraint, p.Vars)
	flatWatch := make([]*Constraint, total)
	for v, n := range s.degree {
		s.watch[v], flatWatch = flatWatch[:0:n], flatWatch[n:]
	}
	for _, con := range p.Constraints {
		for i, v := range con.Scope {
			if !scopeRepeat(con.Scope, i) {
				s.watch[v] = append(s.watch[v], con)
			}
		}
	}
	return s
}

// startSolveSpan opens a solve's span under ctx's, nil unless tracing.
func startSolveSpan(ctx context.Context, p *Instance) *obs.Span {
	sp := obs.StartChild(obs.SpanFrom(ctx), "csp.solve")
	sp.SetInt("vars", int64(p.Vars))
	sp.SetInt("dom", int64(p.Dom))
	sp.SetInt("constraints", int64(len(p.Constraints)))
	return sp
}

// scopeRepeat reports whether scope[i] already occurred earlier in scope.
// Scopes are arity-sized, so the linear scan replaces what used to be a map
// allocation per constraint in every searcher construction.
func scopeRepeat(scope []int, i int) bool {
	for j := 0; j < i; j++ {
		if scope[j] == scope[i] {
			return true
		}
	}
	return false
}

// scopeHasRepeat reports whether any variable occurs twice in scope.
func scopeHasRepeat(scope []int) bool {
	for i := range scope {
		if scopeRepeat(scope, i) {
			return true
		}
	}
	return false
}

func (s *searcher) run(limit int64, yield func([]int) bool) Result {
	res := s.solve(limit, yield)
	res.Stats.Duration = time.Since(s.start)
	res.Stats.Strategy = s.opts.label()
	s.finishObs(res)
	return res
}

func (s *searcher) solve(limit int64, yield func([]int) bool) Result {
	s.limit = limit
	s.yield = yield

	if s.cancel.cancelledNow() {
		s.aborted = true
		return Result{Aborted: true, Stats: s.stats}
	}
	// Root propagation.
	if s.opts.Algorithm == MAC || s.opts.RootConsistency {
		sp := obs.StartChild(s.span, "csp.propagate")
		sp.SetStr("phase", "root")
		before := s.stats.Prunings
		ok := s.gacAll()
		sp.SetInt("prunings", s.stats.Prunings-before)
		sp.End()
		if !ok {
			return Result{Aborted: s.aborted, Stats: s.stats}
		}
	} else {
		for v := 0; v < s.p.Vars; v++ {
			if s.size[v] == 0 {
				return Result{Stats: s.stats}
			}
		}
	}
	// Unit propagation of empty-scope...no; constraints always have scope>=1.
	s.searchSpan = obs.StartChild(s.span, "csp.search")
	var solution []int
	sol := s.search(&solution)
	if s.searchSpan != nil {
		s.searchSpan.SetInt("nodes", s.stats.Nodes)
		s.searchSpan.End()
	}
	if sol && solution != nil {
		return Result{Found: true, Solution: solution, Stats: s.stats}
	}
	return Result{Aborted: s.aborted, Stats: s.stats}
}

// search returns true when the search should stop entirely (limit reached,
// yield declined, or — in single-solution mode — a solution was found, in
// which case *out is set).
func (s *searcher) search(out *[]int) bool {
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
	for val := 0; val < s.p.Dom; val++ {
		if !s.dom[v][val] {
			continue
		}
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
		}
		s.undo(v, mark)
		if s.aborted {
			// Propagation noticed the cancellation mid-branch; unwind.
			return true
		}
		s.stats.Backtracks++
	}
	return false
}

// tryAssign assigns v=val, runs the algorithm-specific propagation, and
// reports whether the branch is still alive. On failure the caller must undo.
func (s *searcher) tryAssign(v, val int) bool {
	s.assign[v] = val
	s.nAssigned++
	if s.nAssigned > s.stats.MaxDepth {
		s.stats.MaxDepth = s.nAssigned
	}
	// Narrow v's domain to {val} so propagation sees the assignment; record
	// on the trail for undo.
	for w := 0; w < s.p.Dom; w++ {
		if w != val && s.dom[v][w] {
			s.dom[v][w] = false
			s.size[v]--
			s.trail = append(s.trail, trailEntry{int32(v), int32(w)})
		}
	}

	switch s.opts.Algorithm {
	case BT:
		return s.checkAssigned(v)
	case FC:
		if !s.checkAssigned(v) {
			return false
		}
		if s.searchSpan != nil {
			return s.tracePropagate(v, s.forwardCheck)
		}
		return s.forwardCheck(v)
	default: // MAC
		if s.searchSpan != nil {
			return s.tracePropagate(v, s.gacFrom)
		}
		return s.gacFrom(v)
	}
}

// tracePropagate runs one per-assignment propagation wave under a span
// nested in the search span. Only reached when tracing is active (the
// searchSpan nil check keeps the per-node cost at one pointer compare
// otherwise).
func (s *searcher) tracePropagate(v int, propagate func(int) bool) bool {
	sp := obs.StartChild(s.searchSpan, "csp.propagate")
	sp.SetInt("var", int64(v))
	before := s.stats.Prunings
	ok := propagate(v)
	sp.SetInt("prunings", s.stats.Prunings-before)
	if !ok {
		sp.SetInt("wipeout", 1)
	}
	sp.End()
	return ok
}

func (s *searcher) undo(v int, mark int) {
	for len(s.trail) > mark {
		e := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		if !s.dom[e.v][e.val] {
			s.dom[e.v][e.val] = true
			s.size[e.v]++
		}
	}
	if s.assign[v] >= 0 {
		s.assign[v] = -1
		s.nAssigned--
	}
}

func (s *searcher) pickVar() int {
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
		if s.size[v] < bestSize || (s.size[v] == bestSize && s.degree[v] > bestDeg) {
			best, bestSize, bestDeg = v, s.size[v], s.degree[v]
		}
	}
	if best < 0 {
		panic("csp: pickVar with all variables assigned")
	}
	return best
}

// checkAssigned verifies every constraint on v whose scope is now fully
// assigned.
func (s *searcher) checkAssigned(v int) bool {
	row := make([]int, 8)
	for _, con := range s.watch[v] {
		full := true
		for _, u := range con.Scope {
			if s.assign[u] < 0 {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		if cap(row) < len(con.Scope) {
			row = make([]int, len(con.Scope))
		}
		r := row[:len(con.Scope)]
		for i, u := range con.Scope {
			r[i] = s.assign[u]
		}
		if !con.Table.Has(r) {
			return false
		}
	}
	return true
}

// forwardCheck prunes, for each constraint on v with exactly one unassigned
// variable, the values of that variable with no supporting tuple. Each
// support scan ticks the cancelChecker: one FC node can scan dozens of
// tables, so counting nodes alone would let a wide instance run for
// milliseconds between polls. It returns false on a wipeout or (with
// s.aborted set) on cancellation.
func (s *searcher) forwardCheck(v int) bool {
	for _, con := range s.watch[v] {
		free := -1
		nFree := 0
		for _, u := range con.Scope {
			if s.assign[u] < 0 {
				free = u
				nFree++
				if nFree > 1 {
					break
				}
			}
		}
		if nFree != 1 {
			continue
		}
		for val := 0; val < s.p.Dom; val++ {
			if !s.dom[free][val] {
				continue
			}
			if s.cancel.cancelledAfter(1) {
				s.aborted = true
				return false
			}
			if !s.hasSupportAssigned(con, free, val) {
				s.dom[free][val] = false
				s.size[free]--
				s.stats.Prunings++
				s.trail = append(s.trail, trailEntry{int32(free), int32(val)})
			}
		}
		if s.size[free] == 0 {
			return false
		}
	}
	return true
}

// hasSupportAssigned reports whether some tuple of con is compatible with
// the current assignment and with free=val (used by FC, where all other
// scope variables are assigned).
func (s *searcher) hasSupportAssigned(con *Constraint, free, val int) bool {
	tab := con.Table
tuples:
	for t := 0; t < tab.Len(); t++ {
		row := tab.Row(t)
		for i, u := range con.Scope {
			if u == free {
				if row[i] != val {
					continue tuples
				}
			} else if a := s.assign[u]; a >= 0 && row[i] != a {
				continue tuples
			}
		}
		return true
	}
	return false
}

// gacAll establishes generalized arc consistency from scratch.
func (s *searcher) gacAll() bool {
	queue := append([]*Constraint(nil), s.p.Constraints...)
	return s.gacLoop(queue)
}

// gacFrom establishes GAC starting from the constraints on v.
func (s *searcher) gacFrom(v int) bool {
	queue := append([]*Constraint(nil), s.watch[v]...)
	return s.gacLoop(queue)
}

// gacLoop is GAC-3: repeatedly revise constraints until a fixpoint. When a
// variable's domain shrinks, every constraint on it is re-enqueued.
func (s *searcher) gacLoop(queue []*Constraint) bool {
	inQueue := make(map[*Constraint]bool, len(queue))
	for _, c := range queue {
		inQueue[c] = true
	}
	for len(queue) > 0 {
		if s.cancel.cancelledAfter(1) {
			s.aborted = true
			return false
		}
		con := queue[0]
		queue = queue[1:]
		inQueue[con] = false
		changedVars, ok := s.revise(con)
		if !ok {
			return false
		}
		// A constraint with a repeated scope variable is not a fixpoint of
		// its own revision: pruning a value unsupported at one position can
		// kill tuples that supported other values through the variable's
		// other positions, so it must re-revise itself after its own prunes.
		selfAgain := len(changedVars) > 0 && scopeHasRepeat(con.Scope)
		for _, u := range changedVars {
			for _, c2 := range s.watch[u] {
				if (c2 != con || selfAgain) && !inQueue[c2] {
					inQueue[c2] = true
					queue = append(queue, c2)
				}
			}
		}
	}
	return true
}

// revise removes, for every variable in con's scope, the values with no
// supporting tuple under the current domains. It returns the variables whose
// domains changed and false if some domain became empty.
func (s *searcher) revise(con *Constraint) ([]int, bool) {
	scope := con.Scope
	// supported[i][val]: value val of scope position i has a support.
	supported := make([][]bool, len(scope))
	for i := range supported {
		supported[i] = make([]bool, s.p.Dom)
	}
	tab := con.Table
tuples:
	for t := 0; t < tab.Len(); t++ {
		row := tab.Row(t)
		for i, u := range scope {
			if !s.dom[u][row[i]] {
				continue tuples
			}
		}
		for i := range scope {
			supported[i][row[i]] = true
		}
	}
	var changed []int
	for i, u := range scope {
		ch := false
		for val := 0; val < s.p.Dom; val++ {
			if s.dom[u][val] && !supported[i][val] {
				s.dom[u][val] = false
				s.size[u]--
				s.stats.Prunings++
				s.trail = append(s.trail, trailEntry{int32(u), int32(val)})
				ch = true
			}
		}
		if s.size[u] == 0 {
			return nil, false
		}
		if ch {
			changed = append(changed, u)
		}
	}
	return changed, true
}
