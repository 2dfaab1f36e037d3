package consistency

import (
	"fmt"
	"math/rand"
	"testing"

	"csdb/internal/pebble"
	"csdb/internal/structure"
)

// oracleIsIConsistent is the enumerating i-consistency test the table
// engine's support counts replaced, kept as the reference: it walks every
// partial homomorphism with i-1 elements and tries every image of every
// further element.
func oracleIsIConsistent(a, b *structure.Structure, i int) bool {
	tuplesAt := a.TuplesContaining()
	extensionOK := func(f pebble.PartialHom, x, y int) bool {
	tuples:
		for _, rt := range tuplesAt[x] {
			img := make([]int, 0, len(rt.Tuple))
			for _, v := range rt.Tuple {
				w, ok := f.Lookup(v)
				if v == x {
					w = y
				} else if !ok {
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
	extendable := func(f pebble.PartialHom, x int) bool {
		for y := 0; y < b.Size(); y++ {
			if extensionOK(f, x, y) {
				return true
			}
		}
		return false
	}
	// rec walks the partial homomorphisms over elements from next on and
	// reports whether every one of size i-1 extends.
	var rec func(f pebble.PartialHom, next int) bool
	rec = func(f pebble.PartialHom, next int) bool {
		if len(f) == i-1 {
			for x := 0; x < a.Size(); x++ {
				if _, defined := f.Lookup(x); !defined && !extendable(f, x) {
					return false
				}
			}
			return true
		}
		for x := next; x < a.Size(); x++ {
			for y := 0; y < b.Size(); y++ {
				if extensionOK(f, x, y) && !rec(f.Extend(x, y), x+1) {
					return false
				}
			}
		}
		return true
	}
	return rec(pebble.PartialHom{}, 0)
}

// TestConsistencyMatchesOracle compares IsIConsistent for i = 1..|A|+2 and
// IsStronglyKConsistent for k = 1..4 with the enumerating reference, on
// random graphs with loops and on a ternary vocabulary whose tuples repeat
// elements.
func TestConsistencyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ternary := structure.MustVocabulary(structure.Symbol{Name: "T", Arity: 3})
	randomStructure := func(n, tuples int) *structure.Structure {
		if rng.Intn(2) == 0 {
			g := structure.NewGraph(n)
			for e := 0; e < tuples; e++ {
				g.MustAddTuple("E", rng.Intn(n), rng.Intn(n))
			}
			return g
		}
		s := structure.MustNew(ternary, n)
		for e := 0; e < tuples; e++ {
			x, y := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.MustAddTuple("T", x, y, x)
			} else {
				s.MustAddTuple("T", x, y, rng.Intn(n))
			}
		}
		return s
	}
	checked := map[bool]int{}
	for trial := 0; trial < 60; trial++ {
		a := randomStructure(1+rng.Intn(5), 1+rng.Intn(6))
		var b *structure.Structure
		for b == nil || !b.Voc().Equal(a.Voc()) {
			b = randomStructure(1+rng.Intn(3), 2+rng.Intn(8))
		}
		strong := true
		for i := 1; i <= a.Size()+2; i++ {
			what := fmt.Sprintf("trial %d (|A|=%d, |B|=%d) i=%d", trial, a.Size(), b.Size(), i)
			want := oracleIsIConsistent(a, b, i)
			got, err := IsIConsistent(a, b, i)
			if err != nil || got != want {
				t.Fatalf("%s: IsIConsistent = %v (%v), reference %v", what, got, err, want)
			}
			checked[want]++
			strong = strong && want
			if i > 4 {
				continue
			}
			gotStrong, err := IsStronglyKConsistent(a, b, i)
			if err != nil || gotStrong != strong {
				t.Fatalf("%s: IsStronglyKConsistent = %v (%v), reference %v", what, gotStrong, err, strong)
			}
		}
	}
	if checked[true] == 0 || checked[false] == 0 {
		t.Fatalf("the draw decided only one way: %v", checked)
	}
}
