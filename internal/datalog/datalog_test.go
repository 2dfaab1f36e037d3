package datalog

import (
	"math/rand"
	"testing"

	"csdb/internal/graph"
	"csdb/internal/relation"
	"csdb/internal/structure"
)

func TestParseAndShape(t *testing.T) {
	p := MustParse(`
% transitive closure
T(X,Y) :- E(X,Y).
T(X,Y) :- T(X,Z), E(Z,Y).
.goal T
`)
	if len(p.Rules) != 2 || p.Goal != "T" {
		t.Fatalf("shape: %+v", p)
	}
	if got := p.IDBs(); len(got) != 1 || got[0] != "T" {
		t.Fatalf("IDBs = %v", got)
	}
	if got := p.EDBs(); len(got) != 1 || got[0] != "E" {
		t.Fatalf("EDBs = %v", got)
	}
	if p.Width() != 3 {
		t.Fatalf("Width = %d, want 3", p.Width())
	}
	if !p.IsKDatalog(3) || p.IsKDatalog(2) {
		t.Fatal("k-Datalog check wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"T(X,Y) :- E(X,Z)\nT(X,Y) :- T(X)", // inconsistent arity
		"T(X,Y) :- E(X,X)",                 // unsafe: Y not in body
		"T(X) :- ",                         // empty body
		"T(X)",                             // no :-
		".goal Q\nT(X) :- E(X,X)",          // goal not an IDB
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Fatalf("accepted %q", s)
		}
	}
}

func TestDefaultGoal(t *testing.T) {
	p := MustParse("P(X) :- E(X,X)\nQ :- P(X)")
	if p.Goal != "Q" {
		t.Fatalf("default goal = %q", p.Goal)
	}
}

func TestTransitiveClosureMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		// Random digraph.
		adj := make([][]bool, n)
		e := EDBRelation(2)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.3 {
					adj[i][j] = true
					e.MustAdd(relation.Tuple{i, j})
				}
			}
		}
		res, err := Eval(TransitiveClosure(), Relations{"E": e})
		if err != nil {
			t.Fatalf("Eval: %v", err)
		}
		tc := res["T"]
		// Brute-force reachability by >=1 edges.
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = append([]bool(nil), adj[i]...)
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if reach[i][j] != tc.Has(relation.Tuple{i, j}) {
					t.Fatalf("trial %d: TC(%d,%d) = %v, want %v", trial, i, j, tc.Has(relation.Tuple{i, j}), reach[i][j])
				}
			}
		}
	}
}

func TestNonTwoColorabilityProgram(t *testing.T) {
	prog := NonTwoColorability()
	if prog.Width() != 4 {
		t.Fatalf("the paper's program is 4-Datalog; Width = %d", prog.Width())
	}
	cases := []struct {
		name    string
		g       *structure.Structure
		non2col bool
	}{
		{"C4", structure.Cycle(4), false},
		{"C5", structure.Cycle(5), true},
		{"C7", structure.Cycle(7), true},
		{"C8", structure.Cycle(8), false},
		{"P6", structure.Path(6), false},
		{"K3", structure.Clique(3), true},
		{"K4", structure.Clique(4), true},
	}
	for _, c := range cases {
		got, err := GoalTrue(prog, GraphEDB(c.g))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.non2col {
			t.Fatalf("%s: goal = %v, want %v", c.name, got, c.non2col)
		}
	}
}

// The Datalog program agrees with the polynomial bipartiteness algorithm on
// random graphs (Theorem 4.6 instantiated for B = K2).
func TestNonTwoColorabilityAgainstBipartiteness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := NonTwoColorability()
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(6)
		g := graph.New(n)
		s := structure.NewGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(i, j)
					structure.AddUndirectedEdge(s, i, j)
				}
			}
		}
		got, err := GoalTrue(prog, GraphEDB(s))
		if err != nil {
			t.Fatal(err)
		}
		if got == g.IsBipartite() {
			t.Fatalf("trial %d: program=%v bipartite=%v", trial, got, g.IsBipartite())
		}
	}
}

func TestTwoSatUnsatProgram(t *testing.T) {
	prog := TwoSatUnsat()
	if !prog.IsKDatalog(3) {
		t.Fatalf("TwoSatUnsat width = %d", prog.Width())
	}
	cases := []struct {
		name  string
		f     TwoCNF
		unsat bool
	}{
		{"sat simple", TwoCNF{2, [][2]int{{1, 2}, {-1, 2}}}, false},
		{"forced contradiction", TwoCNF{1, [][2]int{{1, 1}, {-1, -1}}}, true},
		{"chain unsat", TwoCNF{2, [][2]int{{1, 1}, {-1, 2}, {-2, -2}, {1, -2}}}, true},
		{"cycle sat", TwoCNF{3, [][2]int{{1, 2}, {2, 3}, {3, 1}}}, false},
		{"classic unsat", TwoCNF{2, [][2]int{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}}}, true},
	}
	for _, c := range cases {
		got, err := GoalTrue(prog, c.f.EDB())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.unsat {
			t.Fatalf("%s: unsat = %v, want %v", c.name, got, c.unsat)
		}
	}
}

// The 2-SAT program agrees with brute force on random formulas.
func TestTwoSatUnsatAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	prog := TwoSatUnsat()
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(8)
		f := TwoCNF{NumVars: n}
		for c := 0; c < m; c++ {
			lit := func() int {
				v := 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					return -v
				}
				return v
			}
			f.Clauses = append(f.Clauses, [2]int{lit(), lit()})
		}
		want := !satisfiable2CNF(f)
		got, err := GoalTrue(prog, f.EDB())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: program=%v brute=%v formula=%v", trial, got, want, f.Clauses)
		}
	}
}

func satisfiable2CNF(f TwoCNF) bool {
assign:
	for mask := 0; mask < 1<<f.NumVars; mask++ {
		for _, c := range f.Clauses {
			ok := false
			for _, lit := range c {
				v := lit
				if v < 0 {
					v = -v
				}
				val := (mask>>(v-1))&1 == 1
				if (lit > 0) == val {
					ok = true
				}
			}
			if !ok {
				continue assign
			}
		}
		return true
	}
	return false
}

func TestHornUnsatProgram(t *testing.T) {
	prog := HornUnsat()
	if prog.Width() != 3 {
		t.Fatalf("HornUnsat width = %d", prog.Width())
	}
	cases := []struct {
		name  string
		f     HornFormula
		unsat bool
	}{
		{"trivially sat", HornFormula{NumVars: 2, Imp1: [][2]int{{0, 1}}}, false},
		{"fact chain to contradiction", HornFormula{
			NumVars: 3,
			Facts:   []int{0},
			Imp1:    [][2]int{{0, 1}, {1, 2}},
			Neg1:    []int{2},
		}, true},
		{"binary implication needed", HornFormula{
			NumVars: 3,
			Facts:   []int{0, 1},
			Imp2:    [][3]int{{0, 1, 2}},
			Neg1:    []int{2},
		}, true},
		{"neg pair not both forced", HornFormula{
			NumVars: 2,
			Facts:   []int{0},
			Neg2:    [][2]int{{0, 1}},
		}, false},
		{"neg pair both forced", HornFormula{
			NumVars: 2,
			Facts:   []int{0, 1},
			Neg2:    [][2]int{{0, 1}},
		}, true},
	}
	for _, c := range cases {
		got, err := GoalTrue(prog, c.f.EDB())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.unsat {
			t.Fatalf("%s: unsat = %v, want %v", c.name, got, c.unsat)
		}
	}
}

func TestEvalArityMismatchEDB(t *testing.T) {
	p := MustParse("T(X,Y) :- E(X,Y)")
	if _, err := Eval(p, Relations{"E": EDBRelation(3)}); err == nil {
		t.Fatal("EDB arity mismatch accepted")
	}
}

func TestEvalMissingEDBIsEmpty(t *testing.T) {
	p := MustParse("T(X,Y) :- E(X,Y)")
	res, err := Eval(p, Relations{})
	if err != nil {
		t.Fatal(err)
	}
	if !res["T"].Empty() {
		t.Fatal("missing EDB not treated as empty")
	}
}

func TestRepeatedHeadVariable(t *testing.T) {
	p := MustParse("D(X,X) :- V(X)")
	res, err := Eval(p, Relations{"V": EDBRelation(1, []int{3}, []int{5})})
	if err != nil {
		t.Fatal(err)
	}
	d := res["D"]
	if d.Len() != 2 || !d.Has(relation.Tuple{3, 3}) || !d.Has(relation.Tuple{5, 5}) {
		t.Fatalf("D = %v", d)
	}
}

func TestRepeatedBodyVariable(t *testing.T) {
	p := MustParse("L(X) :- E(X,X)")
	e := EDBRelation(2, []int{0, 1}, []int{2, 2})
	res, err := Eval(p, Relations{"E": e})
	if err != nil {
		t.Fatal(err)
	}
	if res["L"].Len() != 1 || !res["L"].Has(relation.Tuple{2}) {
		t.Fatalf("L = %v", res["L"])
	}
}

// TestRuleRepeatsHeadAndBodyVariables evaluates rules whose heads and
// bodies both repeat a variable, one of them recursive over an IDB so the
// repeated head column is re-read in later rounds.
func TestRuleRepeatsHeadAndBodyVariables(t *testing.T) {
	p := MustParse(`P(X,Y,X) :- E(X,Y,Y).
Q(Y,Y) :- P(X,Y,X).
P(Y,Y,Y) :- Q(Y,Y), E(Y,Z,Y).`)
	e := EDBRelation(3, []int{1, 2, 2}, []int{3, 4, 5}, []int{6, 6, 6}, []int{2, 7, 2}, []int{7, 0, 0})
	res, err := Eval(p, Relations{"E": e})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]relation.Tuple{
		"P": {{1, 2, 1}, {6, 6, 6}, {7, 0, 7}, {2, 2, 2}},
		"Q": {{2, 2}, {6, 6}, {0, 0}},
	}
	for pred, rows := range want {
		got := res[pred]
		if got.Len() != len(rows) {
			t.Fatalf("%s = %v, want %v", pred, got, rows)
		}
		for _, row := range rows {
			if !got.Has(row) {
				t.Fatalf("%s = %v, want %v", pred, got, rows)
			}
		}
	}
}
