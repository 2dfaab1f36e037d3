package csp

import (
	"math/rand"
	"testing"

	"csdb/internal/relation"
	"csdb/internal/structure"
)

// bruteForce enumerates all Dom^Vars assignments and returns the solutions.
func bruteForce(p *Instance) [][]int {
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

// randomInstance generates a random binary CSP (model-B flavored).
func randomInstance(rng *rand.Rand, vars, dom int, density, tightness float64) *Instance {
	p := NewInstance(vars, dom)
	for i := 0; i < vars; i++ {
		for j := i + 1; j < vars; j++ {
			if rng.Float64() >= density {
				continue
			}
			t := NewTable(2)
			for a := 0; a < dom; a++ {
				for b := 0; b < dom; b++ {
					if rng.Float64() >= tightness {
						t.Add([]int{a, b})
					}
				}
			}
			p.MustAddConstraint([]int{i, j}, t)
		}
	}
	return p
}

func coloringInstance(edges [][2]int, n, colors int) *Instance {
	p := NewInstance(n, colors)
	neq := NewTable(2)
	for a := 0; a < colors; a++ {
		for b := 0; b < colors; b++ {
			if a != b {
				neq.Add([]int{a, b})
			}
		}
	}
	for _, e := range edges {
		p.MustAddConstraint([]int{e[0], e[1]}, neq)
	}
	return p
}

func TestTableBasics(t *testing.T) {
	tab := TableOf(2, []int{0, 1}, []int{1, 0}, []int{0, 1})
	if tab.Len() != 2 {
		t.Fatalf("dedup failed: %d", tab.Len())
	}
	if !tab.Has([]int{0, 1}) || tab.Has([]int{1, 1}) || tab.Has([]int{1}) {
		t.Fatal("membership wrong")
	}
	u := TableOf(2, []int{1, 0}, []int{1, 1})
	in, err := tab.Intersect(u)
	if err != nil || in.Len() != 1 || !in.Has([]int{1, 0}) {
		t.Fatalf("intersect wrong: %v %v", in, err)
	}
	if _, err := tab.Intersect(TableOf(1, []int{0})); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if other := TableOf(2, []int{1, 0}, []int{0, 1}); tab.Digest() != other.Digest() || !tab.Equal(other) {
		t.Fatal("key not canonical")
	}
}

func TestAddConstraintValidation(t *testing.T) {
	p := NewInstance(2, 2)
	if err := p.AddConstraint([]int{0}, TableOf(2, []int{0, 0})); err == nil {
		t.Fatal("scope/arity mismatch accepted")
	}
	if err := p.AddConstraint([]int{0, 2}, TableOf(2, []int{0, 0})); err == nil {
		t.Fatal("out-of-range variable accepted")
	}
	if err := p.AddConstraint([]int{0, 1}, TableOf(2, []int{0, 5})); err == nil {
		t.Fatal("out-of-range value accepted")
	}
}

func TestSolveTrivialInstances(t *testing.T) {
	// No variables: trivially solvable with the empty assignment.
	empty := NewInstance(0, 3)
	if res := Solve(empty, Options{}); !res.Found || len(res.Solution) != 0 {
		t.Fatalf("empty instance: %+v", res)
	}
	// Unsatisfiable: a constraint with an empty table.
	unsat := NewInstance(1, 2)
	unsat.MustAddConstraint([]int{0}, NewTable(1))
	for _, alg := range []Algorithm{BT, FC, MAC} {
		if res := Solve(unsat, Options{Algorithm: alg}); res.Found {
			t.Fatalf("%v found a solution to an unsatisfiable instance", alg)
		}
	}
}

func TestSolveColoring(t *testing.T) {
	// C5 is 3-colorable but not 2-colorable.
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	for _, alg := range []Algorithm{BT, FC, MAC} {
		res3 := Solve(coloringInstance(edges, 5, 3), Options{Algorithm: alg})
		if !res3.Found {
			t.Fatalf("%v: C5 not 3-colored", alg)
		}
		res2 := Solve(coloringInstance(edges, 5, 2), Options{Algorithm: alg})
		if res2.Found {
			t.Fatalf("%v: C5 2-colored", alg)
		}
	}
}

func TestSolversAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		p := randomInstance(rng, 2+rng.Intn(4), 2+rng.Intn(3), 0.7, 0.4)
		want := len(bruteForce(p)) > 0
		for _, alg := range []Algorithm{BT, FC, MAC} {
			for _, ord := range []VarOrder{MRV, Lex} {
				res := Solve(p, Options{Algorithm: alg, VarOrder: ord})
				if res.Found != want {
					t.Fatalf("trial %d: %v/%v found=%v, brute force=%v", trial, alg, ord, res.Found, want)
				}
				if res.Found && !p.Satisfies(res.Solution) {
					t.Fatalf("trial %d: %v returned invalid solution", trial, alg)
				}
			}
		}
	}
}

func TestSolveAllMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		p := randomInstance(rng, 2+rng.Intn(3), 2+rng.Intn(2), 0.8, 0.35)
		want := bruteForce(p)
		seen := make(map[string]bool)
		n, _ := SolveAll(p, Options{}, 0, func(sol []int) bool {
			if !p.Satisfies(sol) {
				t.Fatalf("trial %d: invalid enumerated solution", trial)
			}
			seen[relation.Tuple(sol).Key()] = true
			return true
		})
		if int(n) != len(want) || len(seen) != len(want) {
			t.Fatalf("trial %d: enumerated %d/%d distinct, brute force %d", trial, n, len(seen), len(want))
		}
		for _, w := range want {
			if !seen[relation.Tuple(w).Key()] {
				t.Fatalf("trial %d: missing solution %v", trial, w)
			}
		}
	}
}

func TestSolveAllRespectsLimit(t *testing.T) {
	p := NewInstance(3, 3) // no constraints: 27 solutions
	n, _ := SolveAll(p, Options{}, 5, func([]int) bool { return true })
	if n != 5 {
		t.Fatalf("limit ignored: %d", n)
	}
	n2, _ := SolveAll(p, Options{}, 0, func(sol []int) bool { return sol[0] == 0 })
	if n2 < 1 {
		t.Fatalf("yield stop broken: %d", n2)
	}
	n3 := CountSolutions(p, 0)
	if n3 != 27 {
		t.Fatalf("CountSolutions = %d, want 27", n3)
	}
}

func TestNodeLimitAborts(t *testing.T) {
	// A hard unsatisfiable pigeonhole-ish instance: 6 variables, 5 values,
	// all-different (encoded pairwise).
	p := NewInstance(6, 5)
	neq := NewTable(2)
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if a != b {
				neq.Add([]int{a, b})
			}
		}
	}
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			p.MustAddConstraint([]int{i, j}, neq)
		}
	}
	res := Solve(p, Options{Algorithm: BT, NodeLimit: 10})
	if res.Found || !res.Aborted || res.Stats.Nodes != 10 {
		t.Fatalf("expected a search aborted at 10 nodes, got %+v", res)
	}
	if seed := SolveSeed(p, Options{Algorithm: BT, NodeLimit: 10}); seed.Found || !seed.Aborted || seed.Stats.Nodes != 10 {
		t.Fatalf("expected the seed search aborted at 10 nodes, got %+v", seed)
	}
	if full := Solve(p, Options{}); full.Found {
		t.Fatal("pigeonhole solved")
	}
}

func TestJoinSolveAgreesWithSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		p := randomInstance(rng, 2+rng.Intn(4), 2+rng.Intn(3), 0.6, 0.45)
		want := Solve(p, Options{}).Found
		res := JoinSolve(p)
		if res.Found != want {
			t.Fatalf("trial %d: join=%v search=%v", trial, res.Found, want)
		}
		if res.Found && !p.Satisfies(res.Solution) {
			t.Fatalf("trial %d: join produced invalid solution %v", trial, res.Solution)
		}
	}
}

func TestJoinSolutionsMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		p := randomInstance(rng, 2+rng.Intn(3), 2, 0.9, 0.3)
		rel, err := JoinSolutions(p)
		if err != nil {
			t.Fatalf("JoinSolutions: %v", err)
		}
		want := bruteForce(p)
		if rel.Len() != len(want) {
			t.Fatalf("trial %d: join has %d solutions, brute force %d", trial, rel.Len(), len(want))
		}
		for _, w := range want {
			row := make([]int, len(w))
			for v := range w {
				row[rel.Pos(attrOf(v))] = w[v]
			}
			if !rel.Has(row) {
				t.Fatalf("trial %d: join missing solution %v", trial, w)
			}
		}
	}
}

func TestJoinSolveUnconstrainedVariables(t *testing.T) {
	p := NewInstance(3, 2)
	p.MustAddConstraint([]int{0, 1}, TableOf(2, []int{0, 1}))
	res := JoinSolve(p)
	if !res.Found || !p.Satisfies(res.Solution) {
		t.Fatalf("unconstrained variable case: %+v", res)
	}
}

func TestNormalizeDistinct(t *testing.T) {
	// Constraint R(x,x) with table {(0,0),(0,1),(1,1)} must become a unary
	// constraint {0,1} on x.
	p := NewInstance(1, 2)
	p.MustAddConstraint([]int{0, 0}, TableOf(2, []int{0, 0}, []int{0, 1}, []int{1, 1}))
	q := p.NormalizeDistinct()
	if len(q.Constraints) != 1 {
		t.Fatalf("constraints = %d", len(q.Constraints))
	}
	c := q.Constraints[0]
	if len(c.Scope) != 1 || c.Scope[0] != 0 {
		t.Fatalf("scope = %v", c.Scope)
	}
	if c.Table.Len() != 2 || !c.Table.Has([]int{0}) || !c.Table.Has([]int{1}) {
		t.Fatalf("table = %v", c.Table.Tuples())
	}
	// Solution sets agree.
	if len(bruteForce(p)) != len(bruteForce(q)) {
		t.Fatal("normalization changed solution count")
	}
}

func TestNormalizePreservesSolutions(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		p := NewInstance(3, 3)
		// Random constraints with possibly repeated scope variables.
		for c := 0; c < 3; c++ {
			scope := []int{rng.Intn(3), rng.Intn(3)}
			tab := NewTable(2)
			for a := 0; a < 3; a++ {
				for b := 0; b < 3; b++ {
					if rng.Float64() < 0.6 {
						tab.Add([]int{a, b})
					}
				}
			}
			p.MustAddConstraint(scope, tab)
		}
		q := p.Normalize()
		a, b := bruteForce(p), bruteForce(q)
		if len(a) != len(b) {
			t.Fatalf("trial %d: normalization changed solutions %d -> %d", trial, len(a), len(b))
		}
		// Scopes in q are distinct (ordered) and variable-distinct.
		seen := map[string]bool{}
		for _, con := range q.Constraints {
			k := relation.Tuple(con.Scope).Key()
			if seen[k] {
				t.Fatalf("trial %d: duplicate scope after Consolidate", trial)
			}
			seen[k] = true
			vs := map[int]bool{}
			for _, v := range con.Scope {
				if vs[v] {
					t.Fatalf("trial %d: repeated variable after NormalizeDistinct", trial)
				}
				vs[v] = true
			}
		}
	}
}

func TestConsolidateIntersects(t *testing.T) {
	p := NewInstance(2, 2)
	p.MustAddConstraint([]int{0, 1}, TableOf(2, []int{0, 0}, []int{0, 1}))
	p.MustAddConstraint([]int{0, 1}, TableOf(2, []int{0, 1}, []int{1, 1}))
	q := p.Consolidate()
	if len(q.Constraints) != 1 {
		t.Fatalf("constraints = %d", len(q.Constraints))
	}
	if q.Constraints[0].Table.Len() != 1 || !q.Constraints[0].Table.Has([]int{0, 1}) {
		t.Fatal("intersection wrong")
	}
}

func TestDomainsRespected(t *testing.T) {
	p := NewInstance(2, 3)
	p.Domains = [][]int{{2}, {0, 1}}
	p.MustAddConstraint([]int{0, 1}, TableOf(2, []int{2, 1}, []int{0, 0}))
	res := Solve(p, Options{})
	if !res.Found || res.Solution[0] != 2 || res.Solution[1] != 1 {
		t.Fatalf("domains ignored: %+v", res)
	}
	if !p.Satisfies([]int{2, 1}) || p.Satisfies([]int{0, 0}) {
		t.Fatal("Satisfies ignores Domains")
	}
	jr := JoinSolve(p)
	if !jr.Found || jr.Solution[0] != 2 || jr.Solution[1] != 1 {
		t.Fatalf("join solver ignores Domains: %+v", jr)
	}
}

func TestStructureRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		p := randomInstance(rng, 2+rng.Intn(3), 2+rng.Intn(2), 0.8, 0.4)
		a, b, err := ToStructures(p)
		if err != nil {
			t.Fatalf("ToStructures: %v", err)
		}
		q := MustFromStructures(a, b)
		if Solve(p, Options{}).Found != Solve(q, Options{}).Found {
			t.Fatalf("trial %d: round trip changed solvability", trial)
		}
		// A solution of q is a homomorphism A -> B and a solution of p.
		if res := Solve(q, Options{}); res.Found {
			if !structure.IsHomomorphism(a, b, res.Solution) {
				t.Fatalf("trial %d: solution is not a homomorphism", trial)
			}
			if !p.Satisfies(res.Solution) {
				t.Fatalf("trial %d: homomorphism not a solution of the original", trial)
			}
		}
	}
}

func TestFromStructuresColoring(t *testing.T) {
	// Homomorphism C5 -> K3 exists; C5 -> K2 does not.
	c5 := structure.Cycle(5)
	if !HomomorphismExists(c5, structure.Clique(3)) {
		t.Fatal("C5 -> K3 missing")
	}
	if HomomorphismExists(c5, structure.Clique(2)) {
		t.Fatal("C5 -> K2 found")
	}
	h, ok := FindHomomorphism(structure.Cycle(6), structure.Clique(2))
	if !ok || !structure.IsHomomorphism(structure.Cycle(6), structure.Clique(2), h) {
		t.Fatal("C6 -> K2 broken")
	}
}

func TestFromStructuresVocabularyMismatch(t *testing.T) {
	a := structure.Cycle(3)
	b := structure.MustNew(structure.MustVocabulary(structure.Symbol{Name: "F", Arity: 2}), 2)
	if _, err := FromStructures(a, b); err == nil {
		t.Fatal("vocabulary mismatch accepted")
	}
}

func TestStatsAreRecorded(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 0}}
	res := Solve(coloringInstance(edges, 3, 2), Options{Algorithm: BT})
	if res.Found {
		t.Fatal("triangle 2-colored")
	}
	if res.Stats.Nodes == 0 || res.Stats.Backtracks == 0 {
		t.Fatalf("no stats recorded: %+v", res.Stats)
	}
	// MAC should refute at the root or with far fewer nodes than BT.
	mac := Solve(coloringInstance(edges, 3, 2), Options{Algorithm: MAC})
	if mac.Stats.Nodes > res.Stats.Nodes {
		t.Fatalf("MAC nodes %d > BT nodes %d", mac.Stats.Nodes, res.Stats.Nodes)
	}
}
