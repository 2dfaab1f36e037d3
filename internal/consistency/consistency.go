// Package consistency implements the local-consistency machinery of
// Section 5 of the paper: i-consistency and strong k-consistency
// (Definition 5.2), their game-theoretic characterization via existential
// k-pebble games (Proposition 5.3), the procedure for *establishing* strong
// k-consistency from the largest winning strategy (Theorem 5.6), the
// coherence property (Definition 5.5), and the recognition of Freuder's
// tree-structured instances (tree.go). Generalized arc consistency, the
// workhorse propagation of search, is csp.GAC: the bitset engine's root
// propagation.
package consistency

import (
	"fmt"

	"csdb/internal/csp"
	"csdb/internal/pebble"
	"csdb/internal/structure"
)

// IsIConsistent reports whether the homomorphism instance (a, b) is
// i-consistent (Definition 5.2 via Proposition 5.3): every partial
// homomorphism with i-1 elements in its domain extends to any further
// element. i must be >= 1; 1-consistency asks that every single element of A
// has some image (the empty function has the 1-forth property).
func IsIConsistent(a, b *structure.Structure, i int) (bool, error) {
	if i < 1 {
		return false, fmt.Errorf("consistency: i must be >= 1, got %d", i)
	}
	if !a.Voc().Equal(b.Voc()) {
		return false, fmt.Errorf("consistency: structures have different vocabularies")
	}
	ok := true
	forEachPartialHom(a, b, i-1, func(f pebble.PartialHom) bool {
		if len(f) != i-1 {
			return true
		}
		for x := 0; x < a.Size() && ok; x++ {
			if _, defined := f.Lookup(x); defined {
				continue
			}
			if !extendable(a, b, f, x) {
				ok = false
			}
		}
		return ok
	})
	return ok, nil
}

// IsStronglyKConsistent reports whether (a, b) is strongly k-consistent:
// i-consistent for every i <= k. By Proposition 5.3 this holds iff the
// family of all k-partial homomorphisms is a winning strategy for the
// Duplicator in the existential k-pebble game.
func IsStronglyKConsistent(a, b *structure.Structure, k int) (bool, error) {
	for i := 1; i <= k; i++ {
		ok, err := IsIConsistent(a, b, i)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// IsInstanceStronglyKConsistent is IsStronglyKConsistent for a CSP instance,
// via its homomorphism instance (A_P, B_P).
func IsInstanceStronglyKConsistent(p *csp.Instance, k int) (bool, error) {
	a, b, err := csp.ToStructures(p)
	if err != nil {
		return false, err
	}
	return IsStronglyKConsistent(a, b, k)
}

// forEachPartialHom enumerates all partial homomorphisms from a to b with at
// most maxSize elements in their domain; yield returning false stops the
// enumeration of that branch's extensions... it stops everything: the
// traversal aborts once yield returns false.
func forEachPartialHom(a, b *structure.Structure, maxSize int, yield func(pebble.PartialHom) bool) {
	tuplesAt := a.TuplesContaining()
	stop := false
	var rec func(f pebble.PartialHom, next int)
	rec = func(f pebble.PartialHom, next int) {
		if stop {
			return
		}
		if !yield(f) {
			stop = true
			return
		}
		if len(f) == maxSize {
			return
		}
		for x := next; x < a.Size(); x++ {
			for y := 0; y < b.Size(); y++ {
				if extensionOK(a, b, tuplesAt, f, x, y) {
					rec(f.Extend(x, y), x+1)
					if stop {
						return
					}
				}
			}
		}
	}
	rec(pebble.PartialHom{}, 0)
}

func extensionOK(a, b *structure.Structure, tuplesAt [][]structure.RelTuple, f pebble.PartialHom, x, y int) bool {
	img := make([]int, 0, 8)
tuples:
	for _, rt := range tuplesAt[x] {
		img = img[:0]
		for _, v := range rt.Tuple {
			var w int
			if v == x {
				w = y
			} else if bv, ok := f.Lookup(v); ok {
				w = bv
			} else {
				continue tuples
			}
			img = append(img, w)
		}
		if !b.Rel(rt.Rel).Has(img) {
			return false
		}
	}
	return true
}

func extendable(a, b *structure.Structure, f pebble.PartialHom, x int) bool {
	tuplesAt := a.TuplesContaining()
	for y := 0; y < b.Size(); y++ {
		if extensionOK(a, b, tuplesAt, f, x, y) {
			return true
		}
	}
	return false
}

// Establishment is the output of EstablishStrongK: the structures A', B'
// that establish strong k-consistency for A and B (Definition 5.4) together
// with the CSP instance P of Theorem 5.6 they arise from.
type Establishment struct {
	Instance *csp.Instance        // variables A, values B, constraints (ā, R_ā)
	APrime   *structure.Structure // homomorphism instance of Instance
	BPrime   *structure.Structure
	Strategy *pebble.Strategy // the largest winning strategy W^k(A,B)
}

// EstablishStrongK implements the procedure of Theorem 5.6. It computes the
// largest winning strategy for the Duplicator in the existential k-pebble
// game on a and b; if the strategy is empty (the Spoiler wins), strong
// k-consistency cannot be established and ok is false. Otherwise it builds
// the CSP instance whose constraints are (ā, R_ā) for every tuple ā ∈ A^i,
// i <= k, with R_ā = { b̄ : (ā, b̄) ∈ W^k(A,B) }, and its homomorphism
// instance (A', B'). The result is the largest coherent instance
// establishing strong k-consistency.
func EstablishStrongK(a, b *structure.Structure, k int) (est *Establishment, ok bool, err error) {
	if m := a.MaxArity(); m > k {
		return nil, false, fmt.Errorf("consistency: vocabulary arity %d exceeds k=%d; Theorem 5.6 requires a k-ary vocabulary", m, k)
	}
	strat, err := pebble.LargestStrategy(a, b, k)
	if err != nil {
		return nil, false, err
	}
	if !strat.NonEmpty() {
		return nil, false, nil
	}

	p := csp.NewInstance(a.Size(), b.Size())
	// Every tuple ā ∈ A^i for i = 1..k, in lexicographic order.
	abar := make([]int, 0, k)
	var rec func()
	rec = func() {
		if len(abar) > 0 {
			rels := strat.ConfigurationsOf(abar)
			table := csp.NewTable(len(abar))
			for _, bbar := range rels {
				table.Add(bbar)
			}
			if err2 := p.AddConstraint(abar, table); err2 != nil && err == nil {
				err = err2
			}
		}
		if len(abar) == k {
			return
		}
		for x := 0; x < a.Size(); x++ {
			abar = append(abar, x)
			rec()
			abar = abar[:len(abar)-1]
		}
	}
	rec()
	if err != nil {
		return nil, false, err
	}

	aPrime, bPrime, err := csp.ToStructures(p)
	if err != nil {
		return nil, false, err
	}
	return &Establishment{Instance: p, APrime: aPrime, BPrime: bPrime, Strategy: strat}, true, nil
}

// IsCoherent reports whether the homomorphism instance (a, b) is coherent
// (Definition 5.5): for every tuple ā in a relation of a and every b̄ in the
// corresponding relation of b, the correspondence ā ↦ b̄ is a well-defined
// partial function and a partial homomorphism from a to b.
func IsCoherent(a, b *structure.Structure) (bool, error) {
	if !a.Voc().Equal(b.Voc()) {
		return false, fmt.Errorf("consistency: structures have different vocabularies")
	}
	for _, sym := range a.Voc().Symbols() {
		bRows := b.Rel(sym.Name).Tuples()
		for _, abar := range a.Rel(sym.Name).Tuples() {
			for _, bbar := range bRows {
				h := make([]int, a.Size())
				for i := range h {
					h[i] = -1
				}
				for i, av := range abar {
					if h[av] >= 0 && h[av] != bbar[i] {
						return false, nil // h_{ā,b̄} not well defined
					}
					h[av] = bbar[i]
				}
				if !structure.IsPartialHomomorphism(a, b, h) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}
