package dispatch

import (
	"context"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/gen"
	"csdb/internal/graph"
	"csdb/internal/obs"
)

// enableObs turns observability on for the test so the dispatch counters
// (fallback, reroute, per-class) record. Tests reading the global counters
// must not run in parallel with each other.
func enableObs(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

func completeGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// pathCSP is a 4-variable not-equal chain: binary, primal graph a path.
func pathCSP(d int) *csp.Instance {
	p := csp.NewInstance(4, d)
	ne := gen.NotEqualTable(d)
	p.MustAddConstraint([]int{0, 1}, ne)
	p.MustAddConstraint([]int{1, 2}, ne)
	p.MustAddConstraint([]int{2, 3}, ne)
	return p
}

// triangleCSP is a not-equal triangle over a d-valued domain: cyclic, so
// never Tree or Acyclic; Schaefer exactly when d == 2 (x != y over {0,1} is
// XOR, which is affine and bijunctive).
func triangleCSP(d int) *csp.Instance {
	p := csp.NewInstance(3, d)
	ne := gen.NotEqualTable(d)
	p.MustAddConstraint([]int{0, 1}, ne)
	p.MustAddConstraint([]int{1, 2}, ne)
	p.MustAddConstraint([]int{2, 0}, ne)
	return p
}

// ternaryAcyclicCSP has a ternary constraint (so it is not a binary tree)
// and an α-acyclic hypergraph.
func ternaryAcyclicCSP() *csp.Instance {
	p := csp.NewInstance(4, 3)
	t := csp.TableOf(3, []int{0, 1, 2}, []int{1, 2, 0}, []int{2, 0, 1})
	p.MustAddConstraint([]int{0, 1, 2}, t)
	p.MustAddConstraint([]int{2, 3}, csp.TableOf(2, []int{0, 1}, []int{1, 2}))
	return p
}

func TestClassifyCanonical(t *testing.T) {
	cases := []struct {
		name string
		p    *csp.Instance
		want Class
	}{
		{"path", pathCSP(3), Tree},
		{"boolean-triangle", triangleCSP(2), Schaefer},
		{"ternary-acyclic", ternaryAcyclicCSP(), Acyclic},
		{"triangle-d3", triangleCSP(3), BoundedWidth},
		{"k6-coloring", gen.Coloring(completeGraph(6), 4), Hard},
	}
	an := NewAnalyzer(0, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cls, _ := an.Classify(tc.p)
			if cls.Class != tc.want {
				t.Fatalf("class = %v, want %v", cls.Class, tc.want)
			}
			// The witness must match the class.
			switch cls.Class {
			case Acyclic:
				if cls.JoinTree == nil {
					t.Fatal("acyclic verdict without a join tree")
				}
			case BoundedWidth:
				if cls.Decomp == nil || cls.Width > an.WidthBudget {
					t.Fatalf("width verdict without a fitting decomposition (width %d)", cls.Width)
				}
			}
		})
	}
}

// reversed returns p with its constraints in reverse order: the same
// instance up to constraint order, so its witnesses are indexed differently.
func reversed(p *csp.Instance) *csp.Instance {
	twin := csp.NewInstance(p.Vars, p.Dom)
	for i := len(p.Constraints) - 1; i >= 0; i-- {
		twin.MustAddConstraint(p.Constraints[i].Scope, p.Constraints[i].Table)
	}
	return twin
}

// TestSolveRoutes runs each canonical instance and its constraint-reversed
// twin through the dispatcher and checks the route taken, the verdict
// against the complete search engine, and that only the Hard instances
// moved the fallback counter.
func TestSolveRoutes(t *testing.T) {
	enableObs(t)
	type solveCase struct {
		name string
		p    *csp.Instance
		want Class
	}
	cases := []solveCase{
		{"path", pathCSP(3), Tree},
		{"boolean-triangle", triangleCSP(2), Schaefer},
		{"ternary-acyclic", ternaryAcyclicCSP(), Acyclic},
		{"triangle-d3", triangleCSP(3), BoundedWidth},
		{"k6-coloring-unsat", gen.Coloring(completeGraph(6), 4), Hard},
		{"k5-coloring-sat", gen.Coloring(completeGraph(5), 5), Hard},
	}
	for _, tc := range cases {
		cases = append(cases, solveCase{tc.name + "-reversed", reversed(tc.p), tc.want})
	}
	an := NewAnalyzer(0, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fb0, rr0 := FallbackCount(), RerouteCount()
			out := an.Solve(context.Background(), tc.p)
			if out.Route != tc.want {
				t.Fatalf("route = %v, want %v", out.Route, tc.want)
			}
			if out.Fallback != (tc.want == Hard) {
				t.Fatalf("fallback = %v for class %v", out.Fallback, tc.want)
			}
			want := csp.Solve(tc.p, csp.Options{})
			if out.Found != want.Found {
				t.Fatalf("dispatcher found=%v, search found=%v", out.Found, want.Found)
			}
			if out.Found && !tc.p.Satisfies(out.Solution) {
				t.Fatalf("non-solution %v", out.Solution)
			}
			wantFB := int64(0)
			if tc.want == Hard {
				wantFB = 1
			}
			if d := FallbackCount() - fb0; d != wantFB {
				t.Fatalf("fallback counter moved by %d, want %d", d, wantFB)
			}
			if d := RerouteCount() - rr0; d != 0 {
				t.Fatalf("defensive reroute fired %d times", d)
			}
		})
	}
}

// TestWidthBudget pins the budget semantics: K4 has treewidth 3, so it is
// BoundedWidth under the default budget and Hard under budget 2.
func TestWidthBudget(t *testing.T) {
	p := gen.Coloring(completeGraph(4), 4)
	if cls, _ := NewAnalyzer(3, 0).Classify(p); cls.Class != BoundedWidth {
		t.Fatalf("budget 3: class = %v, want %v", cls.Class, BoundedWidth)
	}
	if cls, _ := NewAnalyzer(2, 0).Classify(p); cls.Class != Hard {
		t.Fatalf("budget 2: class = %v, want %v", cls.Class, Hard)
	}
}

func TestAnalyzerDefaults(t *testing.T) {
	an := NewAnalyzer(0, 0)
	if an.WidthBudget != DefaultWidthBudget {
		t.Fatalf("WidthBudget = %d, want %d", an.WidthBudget, DefaultWidthBudget)
	}
}

// TestLabeledClassTelemetry pins the PR-8 labeled routing metrics: one
// Solve moves the class vector and the per-class classification-time
// histogram for exactly the routed class.
func TestLabeledClassTelemetry(t *testing.T) {
	enableObs(t)
	inst := pathCSP(3) // tree-classified
	class0 := obsClassVec.Load("tree")
	nsSeries := obsClassifyNs.Series("tree")
	ns0 := nsSeries.Count()

	an := NewAnalyzer(0, 0)
	out := an.Solve(context.Background(), inst)
	if out.Route != Tree {
		t.Fatalf("route = %v, want tree", out.Route)
	}
	if d := obsClassVec.Load("tree") - class0; d != 1 {
		t.Fatalf("dispatch.class{class=tree} delta = %d, want 1", d)
	}
	if d := obsClassifyNs.Series("tree").Count() - ns0; d != 1 {
		t.Fatalf("dispatch.classify_ns{class=tree} delta = %d, want 1", d)
	}
}

// TestClassLabelClosed pins label() against String() for the real classes
// and proves the default branch cannot mint a new label value.
func TestClassLabelClosed(t *testing.T) {
	for _, c := range []Class{Tree, Schaefer, Acyclic, BoundedWidth, Hard} {
		if c.label() != c.String() {
			t.Fatalf("class %v: label %q != string %q", int(c), c.label(), c.String())
		}
	}
	if got := Class(99).label(); got != "hard" {
		t.Fatalf("out-of-range class label = %q, want hard", got)
	}
}
