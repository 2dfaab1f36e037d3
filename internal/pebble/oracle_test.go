package pebble

import (
	"strconv"

	"csdb/internal/structure"
)

// This file keeps the string-keyed engine the table engine replaced, as the
// reference the differential tests compare against: W^k as a map from a
// partial function's canonical key to the function, a forth check that
// re-extends every function it pops, and a removal that walks every
// one-point extension by key.

// oracleKey returns the canonical encoding of a partial function.
func oracleKey(f PartialHom) string {
	b := make([]byte, 0, len(f)*6)
	for i, p := range f {
		if i > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendInt(b, int64(p.A), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(p.B), 10)
	}
	return string(b)
}

// oracleExtensionOK reports whether f ∪ {x ↦ y} is still a partial
// homomorphism, assuming f already is.
func oracleExtensionOK(b *structure.Structure, tuplesAt [][]structure.RelTuple, f PartialHom, x, y int) bool {
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

// oracleLargestStrategy computes the largest winning strategy for the
// Duplicator in the existential k-pebble game on a and b, keyed by
// oracleKey; the family is empty iff the Spoiler wins.
func oracleLargestStrategy(a, b *structure.Structure, k int) map[string]PartialHom {
	fam := make(map[string]PartialHom)
	tuplesAt := a.TuplesContaining()

	// Every partial homomorphism with |dom| <= k, extending over
	// A-elements in increasing order.
	var gen func(f PartialHom, next int)
	gen = func(f PartialHom, next int) {
		fam[oracleKey(f)] = f
		if len(f) == k {
			return
		}
		for x := next; x < a.Size(); x++ {
			for y := 0; y < b.Size(); y++ {
				if oracleExtensionOK(b, tuplesAt, f, x, y) {
					gen(f.Extend(x, y), x+1)
				}
			}
		}
	}
	gen(PartialHom{}, 0)

	forthOK := func(f PartialHom) bool {
		for x := 0; x < a.Size(); x++ {
			if _, defined := f.Lookup(x); defined {
				continue
			}
			found := false
			for y := 0; y < b.Size(); y++ {
				if _, ok := fam[oracleKey(f.Extend(x, y))]; ok {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}

	// Greatest fixpoint: remove functions violating the k-forth property;
	// removal cascades upward (closure under subfunctions) and re-enqueues
	// restrictions for re-checking.
	work := make([]PartialHom, 0, len(fam))
	for _, f := range fam {
		if len(f) < k {
			work = append(work, f)
		}
	}
	var removeClosure func(f PartialHom)
	removeClosure = func(f PartialHom) {
		key := oracleKey(f)
		if _, ok := fam[key]; !ok {
			return
		}
		delete(fam, key)
		if len(f) < k {
			for x := 0; x < a.Size(); x++ {
				if _, defined := f.Lookup(x); defined {
					continue
				}
				for y := 0; y < b.Size(); y++ {
					removeClosure(f.Extend(x, y))
				}
			}
		}
		for i := range f {
			r := f.Without(i)
			if _, ok := fam[oracleKey(r)]; ok {
				work = append(work, r)
			}
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if _, ok := fam[oracleKey(f)]; !ok {
			continue
		}
		if !forthOK(f) {
			removeClosure(f)
		}
	}
	return fam
}
