package csp

import "math/bits"

// Supports is one constraint's table compiled into per-(scope position,
// value) bitmasks over tuple indices: mask(i, val) has bit t set when the
// table's t-th tuple carries val at scope position i. GAC revision then
// becomes word arithmetic — the set of live tuples is the AND over scope
// positions of the OR of the masks of the position's remaining values, and a
// value is supported iff its mask intersects the live set (the compact-table
// idea). Compilation is per-searcher, never cached on the shared Constraint,
// so the portfolio's concurrent lanes stay race-free.
type Supports struct {
	scope []int
	dom   int
	words int      // words per tuple-index mask
	masks []uint64 // arity*dom masks of `words` words, one arena
	tail  uint64   // live-set mask of the last word (bits >= tuples clear)
	// hasRepeat marks a scope with a repeated variable. Pruning such a
	// constraint's own value can kill tuples that were live through the
	// variable's other positions, so one Revise pass is not a fixpoint and
	// the propagation loop must let the constraint re-enqueue itself.
	hasRepeat bool
}

// setupRowsPerTick is the number of table rows compiled per tick of the
// engine's cancelChecker, so a lane's set-up polls after bounded work however
// large one table is. A row costs an OR per scope position; 16 rows, with
// the masks' share of zeroed words, take about as long as one search node,
// so a poll interval of set-up lasts about as long as one of search (see
// cancelCheckInterval).
const setupRowsPerTick = 16

// compileSupports builds the support masks of one constraint over a value
// range of dom into sp, ticking c once per setupRowsPerTick rows (from the
// first row, so every nonempty constraint ticks at least once). It reports
// false, with no masks, once c is cancelled.
func compileSupports(sp *Supports, con *Constraint, dom int, c *cancelChecker) bool {
	n := con.Table.Len()
	words := (n + 63) >> 6
	if words == 0 {
		words = 1
	}
	*sp = Supports{
		scope:     con.Scope,
		dom:       dom,
		words:     words,
		masks:     make([]uint64, len(con.Scope)*dom*words),
		hasRepeat: scopeHasRepeat(con.Scope),
	}
	if r := n & 63; r != 0 {
		sp.tail = 1<<r - 1
	} else if n > 0 {
		sp.tail = ^uint64(0)
	}
	for t := 0; t < n; t++ {
		if t%setupRowsPerTick == 0 && c.cancelledAfter(1) {
			sp.masks = nil
			return false
		}
		for i, val := range con.Table.Row(t) {
			sp.masks[(i*dom+val)*words+t>>6] |= 1 << (t & 63)
		}
	}
	return true
}

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

// watchedEarlier reports whether an earlier scope position of the same
// variable also carries val, so (scope[i], val) already watches the
// constraint.
func (sp *Supports) watchedEarlier(i, val int) bool {
	if !sp.hasRepeat {
		return false
	}
	for j := 0; j < i; j++ {
		if sp.scope[j] == sp.scope[i] && sp.HasValue(j, val) {
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
// every (variable, value) in the scope whose mask misses it, position by
// position and in increasing value order. The callback must remove the
// value from d (so later scope positions see the narrowed domain) and
// return false to stop the revision — a domain wipeout or an abort. Revise
// reports false when the constraint has no live tuple or onPrune stopped
// it; scratch must hold at least 2*words words, and its first words words
// hold the live-tuple set afterwards. A table of at most 64 tuples over a
// value range of at most 64 takes the one-word kernel, revise1; both paths
// prune the same values in the same order.
func (sp *Supports) Revise(d *DomainSet, scratch []uint64, onPrune func(v, val int) bool) bool {
	if sp.words == 1 && d.words == 1 {
		return sp.revise1(d, scratch, onPrune)
	}
	return sp.reviseWords(d, scratch, onPrune)
}

// revise1 is Revise when a mask and a domain row are one word each: the
// live set and each union stay in registers, a value's mask is one word of
// the arena, and no loop runs over words.
func (sp *Supports) revise1(d *DomainSet, scratch []uint64, onPrune func(v, val int) bool) bool {
	live, dom := sp.tail, sp.dom
	for i, u := range sp.scope {
		masks := sp.masks[i*dom : i*dom+dom]
		var union uint64
		for word := d.bits[u]; word != 0; word &= word - 1 {
			union |= masks[bits.TrailingZeros64(word)]
		}
		if live &= union; live == 0 {
			scratch[0] = 0
			return false
		}
	}
	scratch[0] = live
	// See reviseWords on why one pass suffices, or is made to.
	for i, u := range sp.scope {
		masks := sp.masks[i*dom : i*dom+dom]
		for word := d.bits[u]; word != 0; word &= word - 1 {
			val := bits.TrailingZeros64(word)
			if masks[val]&live == 0 && !onPrune(u, val) {
				return false
			}
		}
	}
	return true
}

// reviseWords is Revise over masks and domain rows of any number of words.
func (sp *Supports) reviseWords(d *DomainSet, scratch []uint64, onPrune func(v, val int) bool) bool {
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
			return false
		}
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
					return false
				}
			}
		}
	}
	return true
}
