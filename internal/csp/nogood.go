package csp

import "sort"

// Nogood learning for the bitset engine. A nogood is a set of (var, val)
// literals that cannot all hold together: each one is recorded from the
// decision stack when propagation hits a conflict (GAC plus the previously
// learned nogoods derived a wipeout under exactly those decisions, so the
// set is a valid implication of the instance). Nogoods are consulted during
// propagation with SAT-style two-literal watching keyed on entailment: a
// literal (x, a) is entailed when x's domain narrows to {a}, and when all
// but one literal of a nogood is entailed, the remaining literal's value is
// pruned (all entailed is a conflict). Watch lists are not undone on
// backtrack, so a nogood can temporarily miss a re-propagation after deep
// backtracking — that only weakens pruning, never soundness, and the Luby
// restarts (restart.go) re-seat the watches at the root. The store is
// bounded: at each restart activities decay and, over capacity, the
// lowest-activity half is dropped — completeness is restored by the
// unbounded growth of the Luby cutoffs, not by keeping every nogood.

const (
	// maxNogoodLen caps recorded nogood length: long nogoods almost never
	// re-fire and bloat the watch lists.
	maxNogoodLen = 24
	// maxNogoods bounds the store; cleanup halves it.
	maxNogoods = 8192
	// nogoodDecay multiplies every activity at each restart.
	nogoodDecay = 0.8
)

// nglit is one nogood literal: variable v takes value val.
type nglit struct{ v, val int32 }

type nogood struct {
	lits []nglit
	act  float64
	w    [2]int32 // indices into lits of the two watched literals
}

// nogoodStore owns the learned nogoods and their entailment watch lists.
type nogoodStore struct {
	vars, dom int
	ngs       []*nogood
	// watches: (v*dom + val) -> ids of nogoods watching that literal, made
	// with the first nogood of length >= 2 (a search without one pays none).
	watches [][]int32
	// units are length-1 nogoods: globally refuted (var, val) pairs,
	// re-applied as root prunes at the start of every restart.
	units []nglit
}

func newNogoodStore(vars, dom int) *nogoodStore {
	return &nogoodStore{vars: vars, dom: dom}
}

// record stores the nogood built from the current decision stack. Length-1
// nogoods become permanent root prunes; overlong ones are dropped. It
// reports whether anything was recorded.
func (st *nogoodStore) record(lits []nglit) bool {
	switch {
	case len(lits) == 0 || len(lits) > maxNogoodLen:
		return false
	case len(lits) == 1:
		st.units = append(st.units, lits[0])
		return true
	}
	ng := &nogood{lits: append([]nglit(nil), lits...), act: 1, w: [2]int32{0, 1}}
	id := int32(len(st.ngs))
	st.ngs = append(st.ngs, ng)
	st.watch(ng.lits[0], id)
	st.watch(ng.lits[1], id)
	return true
}

func (st *nogoodStore) watch(l nglit, id int32) {
	if st.watches == nil {
		st.watches = make([][]int32, st.vars*st.dom)
	}
	k := int(l.v)*st.dom + int(l.val)
	st.watches[k] = append(st.watches[k], id)
}

// ngOnSingleton runs nogood unit propagation for a variable x whose domain
// just narrowed to a single value: every nogood watching the literal (x, a)
// either moves its watch to a non-entailed literal, prunes the last
// non-entailed literal's value (a nogood hit), or — with every literal
// entailed — reports a conflict (false).
func (s *bitSearcher) ngOnSingleton(x int) bool {
	a := s.d.Single(x)
	if a < 0 {
		return false
	}
	st := s.ng
	if st.watches == nil {
		return true // no nogood of length >= 2 yet
	}
	key := x*st.dom + a
	list := st.watches[key]
	for i := 0; i < len(list); {
		ng := st.ngs[list[i]]
		wi := 0
		l0 := ng.lits[ng.w[0]]
		if l0.v != int32(x) || l0.val != int32(a) {
			wi = 1
		}
		other := ng.lits[ng.w[1-wi]]
		if !s.d.Has(int(other.v), int(other.val)) {
			// The other watched literal is falsified: the nogood already
			// holds here; leave both watches in place.
			i++
			continue
		}
		moved := false
		for j := range ng.lits {
			if int32(j) == ng.w[0] || int32(j) == ng.w[1] {
				continue
			}
			lj := ng.lits[j]
			if s.d.size[lj.v] == 1 && s.d.Has(int(lj.v), int(lj.val)) {
				continue // entailed: not a usable watch
			}
			ng.w[wi] = int32(j)
			st.watch(lj, list[i])
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			moved = true
			break
		}
		if moved {
			continue
		}
		// Every literal but `other` is entailed: the nogood is unit (prune
		// other) or, when other is entailed too, violated.
		ng.act++
		s.stats.NogoodHits++
		if s.d.size[other.v] == 1 {
			st.watches[key] = list
			return false
		}
		if !s.removeValue(int(other.v), int(other.val), true) {
			st.watches[key] = list
			return false
		}
		i++
	}
	st.watches[key] = list
	return true
}

// onConflict is called at each propagation conflict under at least one
// decision: it counts the conflict against the restart cutoff and records
// the decision-set nogood.
func (s *bitSearcher) onConflict() {
	s.conflicts++
	if s.ng.record(s.decisions) {
		s.stats.NogoodsRecorded++
	}
	if s.cutoff > 0 && s.conflicts >= s.cutoff {
		s.restartNow = true
	}
}

// applyRootUnits re-applies the length-1 nogoods as root prunes at the
// start of a restart (their trail entries were unwound with the episode).
// It returns false when a unit wipes out a domain — a root-level
// unsatisfiability proof.
func (s *bitSearcher) applyRootUnits() bool {
	for _, u := range s.ng.units {
		if !s.d.Has(int(u.v), int(u.val)) {
			continue
		}
		if !s.removeValue(int(u.v), int(u.val), true) {
			s.clearQueue()
			return false
		}
	}
	return true
}

// ngRestartMaintenance runs at each restart boundary (domains are back at
// the root state): decay activities and, when the store is over capacity,
// keep the most active half and rebuild the watch lists from scratch.
func (s *bitSearcher) ngRestartMaintenance() {
	st := s.ng
	for _, ng := range st.ngs {
		ng.act *= nogoodDecay
	}
	if len(st.ngs) <= maxNogoods {
		return
	}
	// Deterministic selection: activity descending, newer nogoods win ties.
	order := make([]int, len(st.ngs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		na, nb := st.ngs[order[a]], st.ngs[order[b]]
		if na.act != nb.act {
			return na.act > nb.act
		}
		return order[a] > order[b]
	})
	keep := order[:maxNogoods/2]
	sort.Ints(keep)
	kept := make([]*nogood, 0, len(keep))
	for _, id := range keep {
		kept = append(kept, st.ngs[id])
	}
	st.ngs = kept
	for k := range st.watches {
		st.watches[k] = st.watches[k][:0]
	}
	for id, ng := range st.ngs {
		ng.w = [2]int32{0, 1}
		st.watch(ng.lits[0], int32(id))
		st.watch(ng.lits[1], int32(id))
	}
}
