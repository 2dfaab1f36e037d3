package consistency

import (
	"context"
	"math/rand"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/structure"
)

func TestIsIConsistentValidation(t *testing.T) {
	a := structure.Cycle(3)
	if _, err := IsIConsistent(a, a, 0); err == nil {
		t.Fatal("i=0 accepted")
	}
	other := structure.MustNew(structure.MustVocabulary(structure.Symbol{Name: "F", Arity: 2}), 2)
	if _, err := IsIConsistent(a, other, 2); err == nil {
		t.Fatal("vocabulary mismatch accepted")
	}
}

func TestConsistencyLevelsOnTriangleVsK2(t *testing.T) {
	// C3 vs K2: strongly 2-consistent (any single pebble extends) but not
	// 3-consistent (two adjacent pebbles cannot cover the third vertex).
	a, b := structure.Cycle(3), structure.Clique(2)
	for i := 1; i <= 2; i++ {
		ok, err := IsIConsistent(a, b, i)
		if err != nil || !ok {
			t.Fatalf("C3/K2 should be %d-consistent (err=%v)", i, err)
		}
	}
	ok, err := IsIConsistent(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("C3/K2 reported 3-consistent")
	}
	strong2, err := IsStronglyKConsistent(a, b, 2)
	if err != nil || !strong2 {
		t.Fatalf("strong 2-consistency: %v %v", strong2, err)
	}
	strong3, err := IsStronglyKConsistent(a, b, 3)
	if err != nil || strong3 {
		t.Fatalf("strong 3-consistency: %v %v", strong3, err)
	}
}

func TestInstanceStrongConsistency(t *testing.T) {
	// A 2-coloring instance of an even cycle, as a CSP instance.
	p := csp.MustFromStructures(structure.Cycle(4), structure.Clique(2))
	a, b, err := csp.ToStructures(p)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := IsStronglyKConsistent(a, b, 2)
	if err != nil || !ok {
		t.Fatalf("C4 coloring not strongly 2-consistent: %v %v", ok, err)
	}
}

func TestEstablishRejectsLargeArity(t *testing.T) {
	voc := structure.MustVocabulary(structure.Symbol{Name: "R", Arity: 3})
	a := structure.MustNew(voc, 2)
	b := structure.MustNew(voc, 2)
	if _, _, err := EstablishStrongK(a, b, 2); err == nil {
		t.Fatal("k smaller than vocabulary arity accepted")
	}
}

func TestEstablishFailsWhenSpoilerWins(t *testing.T) {
	// C5 vs K2 with 3 pebbles: Spoiler wins, so strong 3-consistency cannot
	// be established (Theorem 5.6).
	_, ok, err := EstablishStrongK(structure.Cycle(5), structure.Clique(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("established strong 3-consistency for C5 vs K2")
	}
}

// allHomomorphisms brute-forces every total map a -> b.
func allHomomorphisms(a, b *structure.Structure) [][]int {
	var out [][]int
	h := make([]int, a.Size())
	var rec func(v int)
	rec = func(v int) {
		if v == a.Size() {
			if structure.IsHomomorphism(a, b, h) {
				out = append(out, append([]int(nil), h...))
			}
			return
		}
		for w := 0; w < b.Size(); w++ {
			h[v] = w
			rec(v + 1)
		}
	}
	rec(0)
	return out
}

func TestEstablishTheorem56Properties(t *testing.T) {
	cases := []struct {
		name string
		a, b *structure.Structure
		k    int
	}{
		{"C4 vs K2, k=2", structure.Cycle(4), structure.Clique(2), 2},
		{"C4 vs K2, k=3", structure.Cycle(4), structure.Clique(2), 3},
		{"C5 vs K3, k=2", structure.Cycle(5), structure.Clique(3), 2},
		{"P4 vs K2, k=2", structure.Path(4), structure.Clique(2), 2},
	}
	for _, c := range cases {
		est, ok, err := EstablishStrongK(c.a, c.b, c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !ok {
			t.Fatalf("%s: establishment failed", c.name)
		}
		// Property (1): domains preserved.
		if est.APrime.Size() != c.a.Size() || est.BPrime.Size() != c.b.Size() {
			t.Fatalf("%s: domains changed", c.name)
		}
		// Property (2): CSP(A', B') is strongly k-consistent.
		sc, err := IsStronglyKConsistent(est.APrime, est.BPrime, c.k)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sc {
			t.Fatalf("%s: established instance not strongly %d-consistent", c.name, c.k)
		}
		// Property (4): same total homomorphisms.
		want := allHomomorphisms(c.a, c.b)
		got := allHomomorphisms(est.APrime, est.BPrime)
		if len(want) != len(got) {
			t.Fatalf("%s: homomorphism count changed %d -> %d", c.name, len(want), len(got))
		}
		asSet := map[string]bool{}
		for _, h := range want {
			asSet[keyOf(h)] = true
		}
		for _, h := range got {
			if !asSet[keyOf(h)] {
				t.Fatalf("%s: spurious homomorphism %v", c.name, h)
			}
		}
		// The CSP instance has the same solutions too.
		for _, h := range want {
			if !est.Instance.Satisfies(h) {
				t.Fatalf("%s: original homomorphism %v not a solution of P'", c.name, h)
			}
		}
		// Coherence (Theorem 5.6: the result is the largest *coherent*
		// establishing instance).
		coh, err := IsCoherent(est.APrime, est.BPrime)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !coh {
			t.Fatalf("%s: established instance not coherent", c.name)
		}
	}
}

// Property (3) of Definition 5.4: k-partial homomorphisms of (A', B') are
// k-partial homomorphisms of (A, B). Since A' contains a constraint tuple
// for every ā, any partial map surviving A' must be in the strategy, whose
// members are partial homomorphisms of (A, B); spot-check by enumeration.
func TestEstablishPartialHomsRestrict(t *testing.T) {
	a, b := structure.Cycle(4), structure.Clique(2)
	est, ok, err := EstablishStrongK(a, b, 2)
	if err != nil || !ok {
		t.Fatalf("establish: %v %v", ok, err)
	}
	// Enumerate all partial maps with <= 2 elements.
	n, m := a.Size(), b.Size()
	for x := 0; x < n; x++ {
		for y := 0; y < m; y++ {
			h := fullUndef(n)
			h[x] = y
			if structure.IsPartialHomomorphism(est.APrime, est.BPrime, h) &&
				!structure.IsPartialHomomorphism(a, b, h) {
				t.Fatalf("partial map {%d:%d} allowed by (A',B') but not (A,B)", x, y)
			}
		}
	}
	for x1 := 0; x1 < n; x1++ {
		for x2 := x1 + 1; x2 < n; x2++ {
			for y1 := 0; y1 < m; y1++ {
				for y2 := 0; y2 < m; y2++ {
					h := fullUndef(n)
					h[x1], h[x2] = y1, y2
					if structure.IsPartialHomomorphism(est.APrime, est.BPrime, h) &&
						!structure.IsPartialHomomorphism(a, b, h) {
						t.Fatalf("partial map {%d:%d,%d:%d} allowed by (A',B') but not (A,B)", x1, y1, x2, y2)
					}
				}
			}
		}
	}
}

func fullUndef(n int) []int {
	h := make([]int, n)
	for i := range h {
		h[i] = -1
	}
	return h
}

func keyOf(h []int) string {
	b := make([]byte, 0, len(h)*2)
	for _, v := range h {
		b = append(b, byte('0'+v), ',')
	}
	return string(b)
}

func TestIsCoherent(t *testing.T) {
	// CSP(A,B) from a graph pair: constraint (edge, E^B). Coherent iff for
	// every A-edge and B-edge the induced pair map is a partial hom. For
	// C4 vs K2 every edge pair map is fine: coherent.
	coh, err := IsCoherent(structure.Cycle(4), structure.Clique(2))
	if err != nil || !coh {
		t.Fatalf("C4/K2 coherence: %v %v", coh, err)
	}
	// A structure with a loop edge (0,0) vs K2: h_{(0,0),(0,1)} is not well
	// defined, so the instance is incoherent.
	loop := structure.NewGraph(1)
	loop.MustAddTuple("E", 0, 0)
	coh, err = IsCoherent(loop, structure.Clique(2))
	if err != nil {
		t.Fatal(err)
	}
	if coh {
		t.Fatal("loop instance reported coherent")
	}
}

func TestGACPrunesWithoutLosingSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		p := randomInstance(rng, 2+rng.Intn(4), 2+rng.Intn(3))
		domains, consistent := gac(t, p)
		sols := allSolutions(p)
		if !consistent {
			if len(sols) != 0 {
				t.Fatalf("trial %d: GAC wiped out a satisfiable instance", trial)
			}
			continue
		}
		for _, sol := range sols {
			for v, val := range sol {
				if !containsInt(domains[v], val) {
					t.Fatalf("trial %d: GAC pruned value %d of var %d used by solution %v", trial, val, v, sol)
				}
			}
		}
		// Idempotence: propagating again changes nothing.
		q := p.Clone()
		q.Domains = domains
		domains2, consistent2 := gac(t, q)
		if !consistent2 {
			t.Fatalf("trial %d: second GAC inconsistent", trial)
		}
		for v := range domains {
			if len(domains[v]) != len(domains2[v]) {
				t.Fatalf("trial %d: GAC not idempotent on var %d", trial, v)
			}
		}
	}
}

func TestGACDetectsInconsistency(t *testing.T) {
	p := csp.NewInstance(2, 2)
	p.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{0, 1}))
	p.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{1, 0}))
	if _, consistent := gac(t, p); consistent {
		t.Fatal("contradictory constraints not detected")
	}
	empty := csp.NewInstance(1, 2)
	empty.Domains = [][]int{{}}
	if _, consistent := gac(t, empty); consistent {
		t.Fatal("empty initial domain not detected")
	}
}

func TestGACSolvesTreeStructuredInstances(t *testing.T) {
	// On an arc-consistent tree-structured binary instance, a solution can
	// be read off greedily; here we just verify GAC leaves all variables
	// with nonempty domains on a satisfiable path coloring.
	p := csp.MustFromStructures(structure.Path(6), structure.Clique(2))
	domains, consistent := gac(t, p)
	if !consistent {
		t.Fatal("path coloring inconsistent")
	}
	for v, d := range domains {
		if len(d) == 0 {
			t.Fatalf("variable %d wiped", v)
		}
	}
}

// gac runs csp.GAC under a context that is never cancelled.
func gac(t *testing.T, p *csp.Instance) ([][]int, bool) {
	t.Helper()
	domains, consistent, err := csp.GAC(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return domains, consistent
}

func randomInstance(rng *rand.Rand, vars, dom int) *csp.Instance {
	p := csp.NewInstance(vars, dom)
	for i := 0; i < vars; i++ {
		for j := i + 1; j < vars; j++ {
			if rng.Float64() >= 0.7 {
				continue
			}
			tab := csp.NewTable(2)
			for a := 0; a < dom; a++ {
				for b := 0; b < dom; b++ {
					if rng.Float64() < 0.55 {
						tab.Add([]int{a, b})
					}
				}
			}
			p.MustAddConstraint([]int{i, j}, tab)
		}
	}
	return p
}

func allSolutions(p *csp.Instance) [][]int {
	var out [][]int
	assign := make([]int, p.Vars)
	var rec func(v int)
	rec = func(v int) {
		if v == p.Vars {
			if p.Satisfies(assign) {
				out = append(out, append([]int(nil), assign...))
			}
			return
		}
		for val := 0; val < p.Dom; val++ {
			assign[v] = val
			rec(v + 1)
		}
	}
	rec(0)
	return out
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
