package csp

import "math/bits"

// Supports is one constraint's table compiled into per-(scope position,
// value) bitmasks over tuple indices: mask(i, val) has bit t set when the
// table's t-th tuple carries val at scope position i. GAC revision then
// becomes word arithmetic — the set of live tuples is the AND over scope
// positions of the OR of the masks of the position's remaining values, and a
// value is supported iff its mask intersects the live set (the compact-table
// idea). Compilation is per-searcher, never cached on the shared Constraint,
// so concurrent engines (portfolio, SolveParallel) stay race-free.
type Supports struct {
	scope  []int
	dom    int
	words  int // words per tuple-index mask
	tuples int
	masks  []uint64 // arity*dom masks of `words` words, one arena
	tail   uint64   // live-set mask of the last word (bits >= tuples clear)
	// hasRepeat marks a scope with a repeated variable. Pruning such a
	// constraint's own value can kill tuples that were live through the
	// variable's other positions, so one Revise pass is not a fixpoint and
	// the propagation loop must let the constraint re-enqueue itself.
	hasRepeat bool
}

// CompileSupports builds the support masks of one constraint over a value
// range of dom.
func CompileSupports(con *Constraint, dom int) *Supports {
	sp, _ := compileSupports(con, dom, &cancelChecker{})
	return sp
}

// setupRowsPerTick is the number of table rows compiled per tick of the
// engine's cancelChecker, so a lane's set-up polls after bounded work however
// large one table is. A row costs an OR per scope position; 16 rows, with
// the masks' share of zeroed words, take about as long as one search node,
// so a poll interval of set-up lasts about as long as one of search (see
// cancelCheckInterval).
const setupRowsPerTick = 16

// compileSupports is CompileSupports ticking c once per setupRowsPerTick rows
// (from the first row, so every nonempty constraint ticks at least once). It
// reports false, with no masks, once c is cancelled.
func compileSupports(con *Constraint, dom int, c *cancelChecker) (*Supports, bool) {
	n := con.Table.Len()
	words := (n + 63) >> 6
	if words == 0 {
		words = 1
	}
	sp := &Supports{
		scope:  con.Scope,
		dom:    dom,
		words:  words,
		tuples: n,
		masks:  make([]uint64, len(con.Scope)*dom*words),
	}
	if r := n & 63; r != 0 {
		sp.tail = 1<<r - 1
	} else if n > 0 {
		sp.tail = ^uint64(0)
	}
	sp.hasRepeat = scopeHasRepeat(con.Scope)
	for t := 0; t < n; t++ {
		if t%setupRowsPerTick == 0 && c.cancelled() {
			return nil, false
		}
		for i, val := range con.Table.Row(t) {
			sp.masks[(i*dom+val)*words+t>>6] |= 1 << (t & 63)
		}
	}
	return sp, true
}

// Scope is the constraint's variable scope (shared, read-only).
func (sp *Supports) Scope() []int { return sp.scope }

// Words is the scratch stride one revision needs (callers provide a scratch
// slice of at least 2*Words() words).
func (sp *Supports) Words() int { return sp.words }

// Tuples is the table length the masks were compiled from.
func (sp *Supports) Tuples() int { return sp.tuples }

// HasRepeat reports whether the scope repeats a variable, in which case one
// Revise pass is not a fixpoint of the constraint's own revision and the
// propagation loop must let the constraint re-enqueue itself on its prunes.
func (sp *Supports) HasRepeat() bool { return sp.hasRepeat }

// HasValue reports whether any tuple carries val at scope position i — the
// static condition for watching (scope[i], val).
func (sp *Supports) HasValue(i, val int) bool {
	off := (i*sp.dom + val) * sp.words
	for _, w := range sp.masks[off : off+sp.words] {
		if w != 0 {
			return true
		}
	}
	return false
}

// mask is the tuple-index bitmask of value val at scope position i.
func (sp *Supports) mask(i, val int) []uint64 {
	off := (i*sp.dom + val) * sp.words
	return sp.masks[off : off+sp.words]
}

// Revise runs one word-wise GAC revision of the constraint against the
// current domains: it computes the live-tuple set, then invokes onPrune for
// every (variable, value) in the scope whose mask misses it. The callback
// must remove the value from d (so later scope positions see the narrowed
// domain) and return false to stop the revision — a domain wipeout or an
// abort. Revise returns the number of live tuples and ok=false when the
// constraint has no live tuple or onPrune stopped it; scratch must hold at
// least 2*Words() words.
func (sp *Supports) Revise(d *DomainSet, scratch []uint64, onPrune func(v, val int) bool) (live int64, ok bool) {
	nw := sp.words
	liveSet := scratch[:nw]
	union := scratch[nw : 2*nw]
	for i := range liveSet {
		liveSet[i] = ^uint64(0)
	}
	liveSet[nw-1] = sp.tail
	for i, u := range sp.scope {
		for j := range union {
			union[j] = 0
		}
		row := d.row(u)
		for w, word := range row {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << b
				m := sp.mask(i, w<<6+b)
				for j := 0; j < nw; j++ {
					union[j] |= m[j]
				}
			}
		}
		any := false
		for j := 0; j < nw; j++ {
			liveSet[j] &= union[j]
			if liveSet[j] != 0 {
				any = true
			}
		}
		if !any {
			return 0, false
		}
	}
	for j := 0; j < nw; j++ {
		live += int64(bits.OnesCount64(liveSet[j]))
	}
	// Prune unsupported values. For a scope without repeated variables,
	// removing a value whose mask misses the live set leaves the live set
	// itself unchanged, so one pass per position is a fixpoint. With repeated
	// variables a removal at one position can kill tuples live through the
	// others; the live set computed above then over-approximates the true one,
	// which keeps every prune here sound (a mask missing a superset misses the
	// subset) but may leave work — the engine re-revises hasRepeat constraints
	// on their own prunes until quiescent.
	for i, u := range sp.scope {
		row := d.row(u)
		for w := 0; w < len(row); w++ {
			word := row[w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << b
				val := w<<6 + b
				m := sp.mask(i, val)
				supported := false
				for j := 0; j < nw; j++ {
					if m[j]&liveSet[j] != 0 {
						supported = true
						break
					}
				}
				if !supported && !onPrune(u, val) {
					return live, false
				}
			}
		}
	}
	return live, true
}
