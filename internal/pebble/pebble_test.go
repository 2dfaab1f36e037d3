package pebble

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/datalog"
	"csdb/internal/structure"
)

func TestPartialHomHelpers(t *testing.T) {
	f := PartialHom{{0, 1}, {2, 0}}
	if b, ok := f.Lookup(2); !ok || b != 0 {
		t.Fatal("Lookup broken")
	}
	if _, ok := f.Lookup(1); ok {
		t.Fatal("phantom Lookup")
	}
	g := f.Extend(1, 5)
	if !slices.Equal(g, PartialHom{{0, 1}, {1, 5}, {2, 0}}) {
		t.Fatalf("Extend not sorted: %v", g)
	}
	if !slices.Equal(f, PartialHom{{0, 1}, {2, 0}}) {
		t.Fatal("Extend mutated receiver")
	}
	if r := g.Without(1); !slices.Equal(r, f) {
		t.Fatalf("Without = %v", r)
	}
}

func TestLargestStrategyValidation(t *testing.T) {
	a := structure.Cycle(3)
	if _, err := LargestStrategy(a, a, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	other := structure.MustNew(structure.MustVocabulary(structure.Symbol{Name: "F", Arity: 2}), 2)
	if _, err := LargestStrategy(a, other, 2); err == nil {
		t.Fatal("vocabulary mismatch accepted")
	}
}

// If a homomorphism A -> B exists, the Duplicator wins the k-pebble game for
// every k: the restrictions of the homomorphism form a winning strategy.
func TestHomomorphismImpliesDuplicatorWins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		a := randomGraph(rng, 3+rng.Intn(3), 0.4)
		b := randomGraph(rng, 2+rng.Intn(3), 0.5)
		if !csp.HomomorphismExists(a, b) {
			continue
		}
		for k := 1; k <= 3; k++ {
			win, err := DuplicatorWins(a, b, k)
			if err != nil {
				t.Fatalf("DuplicatorWins: %v", err)
			}
			if !win {
				t.Fatalf("trial %d: hom exists but Spoiler wins %d-pebble game", trial, k)
			}
		}
	}
}

// Spoiler winning with k pebbles implies Spoiler wins with more pebbles.
func TestMonotonicityInK(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		a := randomGraph(rng, 3+rng.Intn(3), 0.5)
		b := randomGraph(rng, 2+rng.Intn(2), 0.5)
		prevDupWins := true
		for k := 1; k <= 4; k++ {
			win, err := DuplicatorWins(a, b, k)
			if err != nil {
				t.Fatal(err)
			}
			if win && !prevDupWins {
				t.Fatalf("trial %d: Duplicator wins k=%d after losing k=%d", trial, k, k-1)
			}
			prevDupWins = win
		}
	}
}

// The classical 2-colorability case: on A vs K2, the Spoiler wins the
// 3-pebble game exactly when A is not 2-colorable (¬CSP(K2) is expressible
// in Datalog with few variables; odd cycles are the witnesses).
func TestK2GameMatchesBipartiteness(t *testing.T) {
	k2 := structure.Clique(2)
	cases := []struct {
		name      string
		a         *structure.Structure
		bipartite bool
	}{
		{"C4", structure.Cycle(4), true},
		{"C5", structure.Cycle(5), false},
		{"C6", structure.Cycle(6), true},
		{"C7", structure.Cycle(7), false},
		{"P5", structure.Path(5), true},
		{"K3", structure.Clique(3), false},
	}
	for _, c := range cases {
		spoiler, err := SpoilerWins(c.a, k2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if spoiler == c.bipartite {
			t.Fatalf("%s: SpoilerWins(3) = %v, bipartite = %v", c.name, spoiler, c.bipartite)
		}
	}
}

// With only 2 pebbles the Duplicator survives on odd cycles vs K2 (2-pebble
// games cannot detect odd cycles of length > 3: the Duplicator can always
// keep the two pebbled images adjacent).
func TestTwoPebblesTooWeakForOddCycles(t *testing.T) {
	k2 := structure.Clique(2)
	win, err := DuplicatorWins(structure.Cycle(5), k2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !win {
		t.Fatal("Duplicator should win the 2-pebble game on C5 vs K2")
	}
}

// Spoiler wins implies no homomorphism (the contrapositive of
// TestHomomorphismImpliesDuplicatorWins), checked exhaustively.
func TestSpoilerWinsImpliesNoHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		a := randomGraph(rng, 3+rng.Intn(3), 0.5)
		b := randomGraph(rng, 2+rng.Intn(2), 0.4)
		for k := 1; k <= 3; k++ {
			spoiler, err := SpoilerWins(a, b, k)
			if err != nil {
				t.Fatal(err)
			}
			if spoiler && csp.HomomorphismExists(a, b) {
				t.Fatalf("trial %d k=%d: Spoiler wins but homomorphism exists", trial, k)
			}
		}
	}
}

// The strategy family is closed under subfunctions and has the forth
// property — the definition of a winning strategy. Every partial map with at
// most K elements is offered to Has, so the members found are all of them.
func TestStrategyClosureProperties(t *testing.T) {
	a, b := structure.Cycle(6), structure.Clique(2)
	s, err := LargestStrategy(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !s.NonEmpty() {
		t.Fatal("C6 vs K2: expected Duplicator win")
	}
	if !s.Has(PartialHom{}) {
		t.Fatal("strategy misses the empty function")
	}
	var members []PartialHom
	var gen func(f PartialHom, next int)
	gen = func(f PartialHom, next int) {
		if s.Has(f) {
			members = append(members, f)
		}
		for x := next; len(f) < s.K && x < a.Size(); x++ {
			for y := 0; y < b.Size(); y++ {
				gen(f.Extend(x, y), x+1)
			}
		}
	}
	gen(PartialHom{}, 0)
	if len(members) != s.Size() {
		t.Fatalf("Has accepts %d functions, Size is %d", len(members), s.Size())
	}
	for _, f := range members {
		// Closure under subfunctions.
		for i := range f {
			if !s.Has(f.Without(i)) {
				t.Fatalf("restriction of %v missing", f)
			}
		}
		// Forth property: every element outside the domain has an image
		// that keeps the function in the family.
		for x := 0; len(f) < s.K && x < a.Size(); x++ {
			if _, defined := f.Lookup(x); defined {
				continue
			}
			if !s.Has(f.Extend(x, 0)) && !s.Has(f.Extend(x, 1)) {
				t.Fatalf("member %v fails forth at %d", f, x)
			}
		}
		// Every member is a partial homomorphism.
		h := make([]int, a.Size())
		for i := range h {
			h[i] = -1
		}
		for _, p := range f {
			h[p.A] = p.B
		}
		if !structure.IsPartialHomomorphism(a, b, h) {
			t.Fatalf("member %v is not a partial homomorphism", f)
		}
	}
}

func TestConfigurationsOf(t *testing.T) {
	a, b := structure.Cycle(4), structure.Clique(2)
	s, err := LargestStrategy(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent pair (0,1): images must be the two distinct K2 vertices.
	r01 := s.ConfigurationsOf([]int{0, 1})
	if len(r01) != 2 {
		t.Fatalf("R_(0,1) = %v", r01)
	}
	for _, bb := range r01 {
		if bb[0] == bb[1] {
			t.Fatalf("adjacent pair mapped to equal values: %v", bb)
		}
	}
	// Repeated tuple (0,0): images must repeat.
	r00 := s.ConfigurationsOf([]int{0, 0})
	for _, bb := range r00 {
		if bb[0] != bb[1] {
			t.Fatalf("repeated element mapped to distinct values: %v", bb)
		}
	}
	if len(r00) != 2 {
		t.Fatalf("R_(0,0) = %v", r00)
	}
	// Out-of-range lengths yield nil.
	if s.ConfigurationsOf(nil) != nil || s.ConfigurationsOf([]int{0, 1, 2}) != nil {
		t.Fatal("length validation broken")
	}
}

// W^k characterizes solvability exactly on structures where A itself is
// small enough: if |A| <= k then Duplicator wins iff a homomorphism exists.
func TestGameExactWhenKCoversA(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		a := randomGraph(rng, 3, 0.6)
		b := randomGraph(rng, 2+rng.Intn(2), 0.4)
		win, err := DuplicatorWins(a, b, 3)
		if err != nil {
			t.Fatal(err)
		}
		if win != csp.HomomorphismExists(a, b) {
			t.Fatalf("trial %d: k=|A| game disagrees with homomorphism", trial)
		}
	}
}

func randomGraph(rng *rand.Rand, n int, p float64) *structure.Structure {
	g := structure.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				g.MustAddTuple("E", i, j)
			}
		}
	}
	return g
}

// randomLoopGraph is randomGraph with loops allowed.
func randomLoopGraph(rng *rand.Rand, n int, p float64) *structure.Structure {
	g := structure.NewGraph(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				g.MustAddTuple("E", i, j)
			}
		}
	}
	return g
}

// randomTernary draws a structure over {T/3, U/1} whose T-tuples may repeat
// elements, such as (x, x, y).
func randomTernary(rng *rand.Rand, n, tuples int) *structure.Structure {
	voc := structure.MustVocabulary(structure.Symbol{Name: "T", Arity: 3}, structure.Symbol{Name: "U", Arity: 1})
	s := structure.MustNew(voc, n)
	for i := 0; i < tuples; i++ {
		x, y := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			s.MustAddTuple("T", x, x, y)
		case 1:
			s.MustAddTuple("T", x, y, x)
		default:
			s.MustAddTuple("T", x, y, rng.Intn(n))
		}
	}
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			s.MustAddTuple("U", i)
		}
	}
	return s
}

// TestLargestStrategyMatchesOracle compares the table engine with the
// string-keyed engine it replaced (oracle_test.go) at k = 1..3: the verdict,
// the strategy's size, and membership of every function the reference
// keeps. Equal sizes and one-way membership make the families equal.
func TestLargestStrategyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type pair struct{ a, b *structure.Structure }
	var pairs []pair
	for trial := 0; trial < 40; trial++ {
		pairs = append(pairs,
			pair{randomLoopGraph(rng, 2+rng.Intn(5), 0.35), randomLoopGraph(rng, 1+rng.Intn(3), 0.5)},
			pair{randomTernary(rng, 2+rng.Intn(4), 2+rng.Intn(6)), randomTernary(rng, 1+rng.Intn(3), 4+rng.Intn(10))})
	}
	pairs = append(pairs, pair{structure.Cycle(7), structure.Clique(2)}, pair{structure.Cycle(6), structure.Clique(2)})
	for i, p := range pairs {
		for k := 1; k <= 3; k++ {
			what := fmt.Sprintf("pair %d (|A|=%d, |B|=%d) k=%d", i, p.a.Size(), p.b.Size(), k)
			want := oracleLargestStrategy(p.a, p.b, k)
			s, err := LargestStrategy(p.a, p.b, k)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if s.NonEmpty() != (len(want) > 0) || s.Size() != len(want) {
				t.Fatalf("%s: NonEmpty %v Size %d, reference %d functions", what, s.NonEmpty(), s.Size(), len(want))
			}
			for _, f := range want {
				if !s.Has(f) {
					t.Fatalf("%s: reference member %v missing", what, f)
				}
			}
			for j := 0; j < k && s.NonEmpty(); j++ {
				if !s.Forth(j) {
					t.Fatalf("%s: a size-%d member fails forth", what, j)
				}
			}
		}
	}
}

// The 2-pebble game agrees with the canonical 2-Datalog program ρ_B of
// Theorem 4.5(3), an independent decision of the same game, on random
// graphs (loops included) against every template with at most 2 nodes.
func TestSpoilerWinsMatchesCanonicalProgram(t *testing.T) {
	var templates []*structure.Structure
	for n := 1; n <= 2; n++ {
		for mask := 0; mask < 1<<(n*n); mask++ {
			b := structure.NewGraph(n)
			for bit := 0; bit < n*n; bit++ {
				if mask&(1<<bit) != 0 {
					b.MustAddTuple("E", bit/n, bit%n)
				}
			}
			templates = append(templates, b)
		}
	}
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		a := randomLoopGraph(rng, 1+rng.Intn(6), 0.1+0.3*rng.Float64())
		for bi, b := range templates {
			want, err := datalog.SpoilerWinsCanonical(a, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SpoilerWins(a, b, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d template %d: game %v, canonical program %v", trial, bi, got, want)
			}
		}
	}
}

// TestLargestStrategyAllocs bounds the allocations of one game on an odd
// cycle: the tables of the fixpoint, not one map per A-tuple to list the
// tuples at each element, nor a per-check lookup of B's relation.
func TestLargestStrategyAllocs(t *testing.T) {
	a, k2 := structure.Cycle(61), structure.Clique(2)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := LargestStrategy(a, k2, 3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("LargestStrategy(C61, K2, 3): %v allocations", allocs)
	if allocs > 200 {
		t.Fatalf("LargestStrategy(C61, K2, 3) allocated %v times, want <= 200", allocs)
	}
}
