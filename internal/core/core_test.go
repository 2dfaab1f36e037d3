package core

import (
	"context"
	"math/rand"
	"os"
	"strings"
	"testing"

	"csdb/internal/cq"
	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/dispatch"
	"csdb/internal/gen"
	"csdb/internal/graph"
	"csdb/internal/structure"
	"csdb/internal/treewidth"
)

func TestFromStructuresAndSolve(t *testing.T) {
	p, err := FromStructures(structure.Cycle(5), structure.Clique(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable {
		t.Fatal("C5 -> K3 unsatisfiable")
	}
	if !structure.IsHomomorphism(structure.Cycle(5), structure.Clique(3), res.Assignment) {
		t.Fatal("assignment is not a homomorphism")
	}

	p2, err := FromStructures(structure.Cycle(5), structure.Clique(2))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p2.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Satisfiable {
		t.Fatal("C5 -> K2 satisfiable")
	}
}

// Solve, whatever route it takes, agrees with each of the paper's generic
// solvers: MAC search, join evaluation (Prop 2.1) and the decomposition DP
// (Thm 6.2).
func TestAllStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		inst := gen.ModelB(rng, 4+rng.Intn(3), 2+rng.Intn(2), 0.7, 0.4)
		res, err := FromCSP(inst).Solve(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Satisfiable && !inst.Satisfies(res.Assignment) {
			t.Fatalf("trial %d (route %v): invalid assignment", trial, res.Route)
		}
		dp, err := treewidth.Solve(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for name, want := range map[string]bool{
			"search": csp.Solve(inst, csp.Options{}).Found,
			"join":   csp.JoinSolve(inst).Found,
			"dp":     dp.Found,
		} {
			if res.Satisfiable != want {
				t.Fatalf("trial %d: Solve (route %v) = %v, %s = %v", trial, res.Route, res.Satisfiable, name, want)
			}
		}
	}
}

// orCycle is a cyclic Boolean instance of OR constraints: bijunctive, so in
// a Schaefer class, and not tree-shaped, so the tree route cannot claim it.
func orCycle(n int) *csp.Instance {
	inst := csp.NewInstance(n, 2)
	orTab := csp.TableOf(2, []int{0, 1}, []int{1, 0}, []int{1, 1})
	for i := 0; i < n; i++ {
		inst.MustAddConstraint([]int{i, (i + 1) % n}, orTab)
	}
	return inst
}

func TestSchaeferStrategy(t *testing.T) {
	inst := orCycle(4)
	res, err := FromCSP(inst).Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable || res.Route != dispatch.Schaefer {
		t.Fatalf("schaefer dispatch failed: %+v", res)
	}
	if !inst.Satisfies(res.Assignment) {
		t.Fatal("invalid assignment")
	}
}

func TestSchaeferStrategyAgreesOnRandomBoolean(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		inst := gen.ModelB(rng, 3+rng.Intn(3), 2, 0.8, 0.4)
		want := csp.Solve(inst, csp.Options{}).Found
		res, err := FromCSP(inst).Solve(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Satisfiable != want {
			t.Fatalf("trial %d: auto=%v search=%v (route %v)", trial, res.Satisfiable, want, res.Route)
		}
	}
}

func TestBooleanQueryView(t *testing.T) {
	// Boolean query: does the database contain a directed triangle?
	q := cq.MustParse("Q :- E(X,Y), E(Y,Z), E(Z,X)")
	withTri := structure.Clique(3)
	p, err := FromBooleanQuery(q, withTri)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable {
		t.Fatal("triangle not found in K3")
	}
	noTri := structure.Cycle(4)
	p2, err := FromBooleanQuery(q, noTri)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p2.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Satisfiable {
		t.Fatal("triangle found in C4")
	}
	// Non-Boolean queries are rejected.
	if _, err := FromBooleanQuery(cq.MustParse("Q(X) :- E(X,X)"), withTri); err == nil {
		t.Fatal("non-Boolean query accepted")
	}
}

func TestQueryViewRoundTrip(t *testing.T) {
	// The query view of a problem decides it (Proposition 2.3).
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		a := gen.RandomSymmetricGraph(rng, 3+rng.Intn(2), 0.5)
		if a.NumTuples() == 0 {
			continue
		}
		b := structure.Clique(2)
		p, err := FromStructures(a, b)
		if err != nil {
			t.Fatal(err)
		}
		q, db, err := p.Query()
		if err != nil {
			t.Fatal(err)
		}
		truth, err := q.True(db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if truth != res.Satisfiable {
			t.Fatalf("trial %d: query view %v, solver %v", trial, truth, res.Satisfiable)
		}
	}
}

// Propagation is the caller's step now: GAC alone refutes this instance,
// and Solve reaches the same verdict without it.
func TestPreprocess(t *testing.T) {
	inst := csp.NewInstance(2, 2)
	inst.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{0, 1}))
	inst.MustAddConstraint([]int{0, 1}, csp.TableOf(2, []int{1, 0}))
	if _, ok, err := csp.GAC(context.Background(), inst); err != nil || ok {
		t.Fatal("GAC did not refute the instance")
	}
	res, err := FromCSP(inst).Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfiable {
		t.Fatalf("route %v: satisfiable", res.Route)
	}
}

// The explanation is rendered from the classification that routed the
// solve, one class per instance shape.
func TestExplain(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inst  *csp.Instance
		route dispatch.Class
		want  string
	}{
		{"schaefer", orCycle(4), dispatch.Schaefer, "Schaefer"},
		{"tree", gen.Coloring(graph.Path(6), 3), dispatch.Tree, "tree-structured"},
		{"width", gen.Coloring(graph.Grid(3, 4), 3), dispatch.BoundedWidth, "tree decomposition of width"},
		{"hard", gen.Coloring(graph.Clique(5), 4), dispatch.Hard, "portfolio"},
	} {
		res, err := FromCSP(tc.inst).Solve(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Route != tc.route || !strings.Contains(res.Explanation, tc.want) {
			t.Fatalf("%s: route %v, explanation %q; want %v mentioning %q",
				tc.name, res.Route, res.Explanation, tc.route, tc.want)
		}
	}
}

// An ear-grown acyclic instance whose primal graph is wider than the width
// budget takes the acyclic route and says so. Core once searched such
// instances with MAC while the dispatcher routed them to Yannakakis.
func TestSolveRoutesWideAcyclic(t *testing.T) {
	f, err := os.Open("../../testdata/acyclic_wide.csp")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inst, err := cspio.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if w := treewidth.BestHeuristic(treewidth.PrimalGraph(inst)).Width(); w <= dispatch.DefaultWidthBudget {
		t.Fatalf("fixture primal width %d is within the width budget", w)
	}
	res, err := FromCSP(inst).Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != dispatch.Acyclic || !strings.Contains(res.Explanation, "acyclic") {
		t.Fatalf("route %v, explanation %q; want acyclic", res.Route, res.Explanation)
	}
	if !res.Satisfiable || !inst.Satisfies(res.Assignment) {
		t.Fatalf("satisfiable fixture: %+v", res)
	}
}

func TestTreeStrategy(t *testing.T) {
	inst := gen.Coloring(graph.Path(8), 3) // 3 colors: not a Boolean template
	p := FromCSP(inst)
	res, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable || res.Route != dispatch.Tree {
		t.Fatalf("tree dispatch failed: %+v", res)
	}
	if !inst.Satisfies(res.Assignment) {
		t.Fatal("invalid tree solution")
	}
}

func TestCount(t *testing.T) {
	p := FromCSP(gen.Coloring(graph.Path(4), 3)) // 3*2^3 = 24 colorings
	n, err := p.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n.Int64() != 24 {
		t.Fatalf("Count = %v, want 24", n)
	}
}

func TestMinimizeQueryHelper(t *testing.T) {
	q := cq.MustParse("Q(X,Y) :- E(X,Z), E(Z,Y), E(X,W)")
	m, err := MinimizeQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 2 {
		t.Fatalf("minimized to %d subgoals", len(m.Body))
	}
}

func TestHomomorphismHelper(t *testing.T) {
	h, ok, err := Homomorphism(structure.Cycle(6), structure.Clique(2))
	if err != nil || !ok {
		t.Fatalf("C6->K2: %v %v", ok, err)
	}
	if !structure.IsHomomorphism(structure.Cycle(6), structure.Clique(2), h) {
		t.Fatal("invalid homomorphism")
	}
	_, ok, err = Homomorphism(structure.Clique(3), structure.Clique(2))
	if err != nil || ok {
		t.Fatalf("K3->K2: %v %v", ok, err)
	}
}

func TestContainsHelper(t *testing.T) {
	tri := cq.MustParse("Q(X) :- E(X,Y), E(Y,Z), E(Z,X)")
	edge := cq.MustParse("Q(X) :- E(X,Y)")
	got, err := Contains(tri, edge)
	if err != nil || !got {
		t.Fatalf("containment: %v %v", got, err)
	}
}

func TestCSPAndStructuresAccessors(t *testing.T) {
	inst := gen.Coloring(graph.Cycle(4), 2)
	p := FromCSP(inst)
	if p.CSP() != inst {
		t.Fatal("CSP accessor lost the instance")
	}
	a, b, err := p.Structures()
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 4 || b.Size() != 2 {
		t.Fatalf("structures view wrong: |A|=%d |B|=%d", a.Size(), b.Size())
	}
	// Cached on second call.
	a2, _, err := p.Structures()
	if err != nil || a2 != a {
		t.Fatal("structures view not cached")
	}
}

func TestPreprocessWithSchaeferAndDomains(t *testing.T) {
	// A Boolean instance with per-variable domains: the Schaefer conversion
	// must fold the domains into unary constraints.
	inst := orCycle(3)
	inst.Domains = [][]int{{1}, nil, nil}
	res, err := FromCSP(inst).Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable || res.Route != dispatch.Schaefer || res.Assignment[0] != 1 {
		t.Fatalf("schaefer with domains: %+v", res)
	}
	// The GAC-reduced instance decides the same way.
	domains, ok, err := csp.GAC(context.Background(), inst)
	if err != nil || !ok {
		t.Fatal("GAC refuted a satisfiable instance")
	}
	reduced := inst.Clone()
	reduced.Domains = domains
	res2, err := FromCSP(reduced).Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Satisfiable {
		t.Fatalf("preprocessed schaefer: %+v", res2)
	}
}
