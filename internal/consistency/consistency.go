// Package consistency implements the local-consistency machinery of
// Section 5 of the paper: i-consistency and strong k-consistency
// (Definition 5.2), their game-theoretic characterization via existential
// k-pebble games (Proposition 5.3), the procedure for *establishing* strong
// k-consistency from the largest winning strategy (Theorem 5.6), the
// coherence property (Definition 5.5), and the recognition of Freuder's
// tree-structured instances (tree.go). Generalized arc consistency, the
// workhorse propagation of search, is csp.GAC: the bitset engine's root
// propagation.
//
// The package enumerates no partial homomorphisms of its own: i-consistency
// and strong k-consistency read the forth-support counts of pebble's
// per-size tables before anything is removed (pebble.PartialHoms), and
// EstablishStrongK reads the reduced tables of pebble.LargestStrategy.
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
// has some image (the empty function has the 1-forth property). It reads
// the forth-support counts of the family of all partial homomorphisms with
// at most i elements (pebble.PartialHoms).
func IsIConsistent(a, b *structure.Structure, i int) (bool, error) {
	if i < 1 {
		return false, fmt.Errorf("consistency: i must be >= 1, got %d", i)
	}
	fam, err := pebble.PartialHoms(a, b, i)
	if err != nil {
		return false, err
	}
	return fam.Forth(i - 1), nil
}

// IsStronglyKConsistent reports whether (a, b) is strongly k-consistent:
// i-consistent for every i <= k. By Proposition 5.3 this holds iff the
// family of all k-partial homomorphisms is a winning strategy for the
// Duplicator in the existential k-pebble game: iff no function below size k
// in that family has a zero forth-support count.
func IsStronglyKConsistent(a, b *structure.Structure, k int) (bool, error) {
	fam, err := pebble.PartialHoms(a, b, k)
	if err != nil {
		return false, err
	}
	for j := 0; j < k; j++ {
		if !fam.Forth(j) {
			return false, nil
		}
	}
	return true, nil
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
