package dispatch

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"csdb/internal/consistency"
	"csdb/internal/csp"
	"csdb/internal/gen"
	"csdb/internal/hypergraph"
	"csdb/internal/schaefer"
	"csdb/internal/treewidth"
)

// The differential gate. Each generator family comes with the set of
// structural classes its instances are allowed to land in; most are exact by
// construction (a tree-shaped binary instance IS Tree, a full 3-tree IS
// within the width budget because chordal graphs give the MCS heuristic a
// perfect elimination ordering). For every instance the harness checks:
//
//   - the verdict agrees with csp.Portfolio run directly;
//   - the classification's witness is valid for the live instance;
//   - the route equals the class and Fallback fires only for Hard;
//   - globally, the fallback counter moved exactly once per Hard-routed
//     instance (zero portfolio invocations on PTIME-classified instances)
//     and the defensive-reroute counter did not move at all.

type family struct {
	name string
	gen  func(rng *rand.Rand) *csp.Instance
	// allowed, when non-nil, is the exact set of admissible classes.
	allowed map[Class]bool
	// forbidden lists classes the instance must NOT land in (used when the
	// family only guarantees what it is not, e.g. "cyclic by construction").
	forbidden map[Class]bool
}

var schaeferClasses = []schaefer.Class{
	schaefer.ZeroValid, schaefer.OneValid, schaefer.Horn,
	schaefer.DualHorn, schaefer.Bijunctive, schaefer.Affine,
}

// schaeferCSP builds a CSP from a random template closed under one
// Schaefer class's polymorphism: ternary scopes of distinct variables, so
// the instance can never be classified Tree.
func schaeferCSP(rng *rand.Rand, class schaefer.Class) *csp.Instance {
	rel := gen.ClosedBoolRel(rng, 3, class, 1+rng.Intn(3))
	n := 3 + rng.Intn(5)
	sp := &schaefer.Instance{
		Template: &schaefer.Template{Rels: []*schaefer.BoolRel{rel}},
		NumVars:  n,
	}
	for c := 2 + rng.Intn(4); c > 0; c-- {
		sp.Cons = append(sp.Cons, schaefer.Application{Rel: 0, Scope: rng.Perm(n)[:3]})
	}
	p, err := sp.ToCSP()
	if err != nil {
		panic(err)
	}
	return p
}

// oneInThreeCSP applies the 1-in-3 relation — which is in none of
// Schaefer's classes — over random ternary scopes.
func oneInThreeCSP(rng *rand.Rand) *csp.Instance {
	n := 3 + rng.Intn(4)
	sp := &schaefer.Instance{
		Template: &schaefer.Template{Rels: []*schaefer.BoolRel{schaefer.RelOneInThree()}},
		NumVars:  n,
	}
	for c := 2 + rng.Intn(3); c > 0; c-- {
		sp.Cons = append(sp.Cons, schaefer.Application{Rel: 0, Scope: rng.Perm(n)[:3]})
	}
	p, err := sp.ToCSP()
	if err != nil {
		panic(err)
	}
	return p
}

// barelyCyclic takes an α-acyclic instance and closes one cycle: it adds a
// binary constraint between two variables at primal distance ≥ 2, which
// provably destroys α-acyclicity (the new edge creates either an uncovered
// triangle or a chordless cycle in the primal graph). Returns nil when the
// instance is too dense to have such a pair; the harness retries.
func barelyCyclic(rng *rand.Rand) *csp.Instance {
	for attempt := 0; attempt < 20; attempt++ {
		p := gen.AcyclicCSP(rng, 4+rng.Intn(5), 3, 3, 0.3)
		u, v := distantPair(p)
		if u < 0 {
			continue
		}
		p.MustAddConstraint([]int{u, v}, gen.RandomBinaryTable(rng, p.Dom, 0.3))
		return p
	}
	return nil
}

// distantPair finds two variables connected in the primal graph that never
// co-occur in a scope (primal distance ≥ 2), or (-1, -1).
func distantPair(p *csp.Instance) (int, int) {
	adj := make([][]int, p.Vars)
	seen := make([]map[int]bool, p.Vars)
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	addEdge := func(a, b int) {
		if a != b && !seen[a][b] {
			seen[a][b], seen[b][a] = true, true
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
	for _, con := range p.Constraints {
		for i := 0; i < len(con.Scope); i++ {
			for j := i + 1; j < len(con.Scope); j++ {
				addEdge(con.Scope[i], con.Scope[j])
			}
		}
	}
	for u := 0; u < p.Vars; u++ {
		dist := make([]int, p.Vars)
		for i := range dist {
			dist[i] = -1
		}
		dist[u] = 0
		queue := []int{u}
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			for _, b := range adj[a] {
				if dist[b] < 0 {
					dist[b] = dist[a] + 1
					queue = append(queue, b)
				}
			}
		}
		for v := 0; v < p.Vars; v++ {
			if dist[v] >= 2 {
				return u, v
			}
		}
	}
	return -1, -1
}

func diffFamilies() []family {
	set := func(cs ...Class) map[Class]bool {
		m := make(map[Class]bool, len(cs))
		for _, c := range cs {
			m[c] = true
		}
		return m
	}
	return []family{
		{
			name: "tree",
			gen: func(rng *rand.Rand) *csp.Instance {
				n := 2 + rng.Intn(10)
				d := 2 + rng.Intn(3)
				return gen.CSPOnGraph(rng, gen.RandomTree(rng, n), d, 0.2+0.4*rng.Float64())
			},
			allowed: set(Tree),
		},
		{
			name: "acyclic",
			gen: func(rng *rand.Rand) *csp.Instance {
				// d=3 keeps the Schaefer branch out of play; low-arity draws
				// can come out as binary forests, hence Tree is admissible.
				return gen.AcyclicCSP(rng, 2+rng.Intn(7), 3, 3, 0.15+0.5*rng.Float64())
			},
			allowed: set(Tree, Acyclic),
		},
		{
			name: "full-3-tree",
			gen: func(rng *rand.Rand) *csp.Instance {
				n := 5 + rng.Intn(6)
				g, _ := gen.PartialKTree(rng, n, 3, 0)
				return gen.CSPOnGraph(rng, g, 3, 0.1+0.3*rng.Float64())
			},
			// A full 3-tree is chordal, so the MCS heuristic recovers width
			// exactly 3 — never more — and the class is deterministic.
			allowed: set(BoundedWidth),
		},
		{
			name: "schaefer",
			gen: func(rng *rand.Rand) *csp.Instance {
				return schaeferCSP(rng, schaeferClasses[rng.Intn(len(schaeferClasses))])
			},
			allowed: set(Schaefer),
		},
		{
			name:      "barely-cyclic",
			gen:       barelyCyclic,
			forbidden: set(Tree, Acyclic, Schaefer),
		},
		{
			name: "clique-hard",
			gen: func(rng *rand.Rand) *csp.Instance {
				// K6 has treewidth 5 > budget; alternate UNSAT (4 colors)
				// and SAT (6 colors) so both verdicts cross the fallback.
				k := 4 + 2*rng.Intn(2)
				return gen.Coloring(completeGraph(6), k)
			},
			allowed: set(Hard),
		},
		{
			name:      "one-in-three",
			gen:       oneInThreeCSP,
			forbidden: set(Schaefer, Tree),
		},
	}
}

// verifyWitness re-derives the classification's claim from the live
// instance: a wrong witness here would mean the dispatcher could route an
// instance to a solver whose precondition does not hold.
func verifyWitness(t *testing.T, p *csp.Instance, cls Classification, budget int) {
	t.Helper()
	switch cls.Class {
	case Tree:
		if !consistency.IsTreeStructured(p) {
			t.Fatal("Tree verdict on a non-tree instance")
		}
	case Schaefer:
		sp, err := schaefer.FromCSP(p)
		if err != nil || !sp.Template.IsTractable() {
			t.Fatalf("Schaefer verdict not reproducible: err=%v", err)
		}
	case Acyclic:
		if cls.JoinTree == nil {
			t.Fatal("Acyclic verdict without a join tree")
		}
		// The flat GYO is held to the map-based reference, whose join trees
		// the hypergraph tests validate.
		h := hypergraph.FromInstance(p)
		if ok, want := oracleGYO(h.N, h.Edges); !ok || !reflect.DeepEqual(cls.JoinTree, want) {
			t.Fatalf("join tree %+v differs from the reference GYO's for the live instance", cls.JoinTree)
		}
	case BoundedWidth:
		if cls.Decomp == nil {
			t.Fatal("BoundedWidth verdict without a decomposition")
		}
		if w := cls.Decomp.Width(); w > budget {
			t.Fatalf("decomposition width %d exceeds budget %d", w, budget)
		}
		if err := cls.Decomp.Validate(treewidth.PrimalGraph(p)); err != nil {
			t.Fatalf("decomposition invalid for the live instance: %v", err)
		}
	}
}

func TestDispatchDifferential(t *testing.T) {
	enableObs(t)
	const trials = 25
	an := NewAnalyzer(0, 0)
	fb0, rr0 := FallbackCount(), RerouteCount()
	hardRouted := int64(0)

	for _, fam := range diffFamilies() {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(fam.name)) * 1009))
			for trial := 0; trial < trials; trial++ {
				p := fam.gen(rng)
				if p == nil {
					continue
				}
				cls, _ := an.Classify(p)
				if fam.allowed != nil && !fam.allowed[cls.Class] {
					t.Fatalf("trial %d: class %v not admissible for family %q",
						trial, cls.Class, fam.name)
				}
				if fam.forbidden[cls.Class] {
					t.Fatalf("trial %d: class %v is impossible for family %q",
						trial, cls.Class, fam.name)
				}
				verifyWitness(t, p, cls, an.WidthBudget)

				want := csp.Portfolio(context.Background(), p, csp.PortfolioOptions{})
				out := an.Solve(context.Background(), p)
				if out.Route == Hard {
					hardRouted++
				}
				if out.Route != cls.Class {
					t.Fatalf("trial %d: routed %v but classified %v", trial, out.Route, cls.Class)
				}
				if out.Fallback != (cls.Class == Hard) {
					t.Fatalf("trial %d: fallback=%v for class %v", trial, out.Fallback, cls.Class)
				}
				if out.Aborted || want.Aborted {
					t.Fatalf("trial %d: unexpected abort (dispatch=%v portfolio=%v)",
						trial, out.Aborted, want.Aborted)
				}
				if out.Found != want.Found {
					t.Fatalf("trial %d (%s, class %v): dispatcher found=%v, portfolio found=%v",
						trial, fam.name, cls.Class, out.Found, want.Found)
				}
				if out.Found && !p.Satisfies(out.Solution) {
					t.Fatalf("trial %d: returned non-solution %v", trial, out.Solution)
				}
			}
		})
	}

	// The global gate: the portfolio ran exactly once per Hard route —
	// never for a PTIME-classified instance — and no routed solver failed.
	if d := FallbackCount() - fb0; d != hardRouted {
		t.Fatalf("portfolio invoked %d times for %d hard-routed instances", d, hardRouted)
	}
	if d := RerouteCount() - rr0; d != 0 {
		t.Fatalf("%d defensive reroutes: a routed solver rejected its own class", d)
	}
}
