package schaefer

import (
	"context"
	"math/rand"
	"testing"

	"csdb/internal/csp"
)

func TestBoolRelBasics(t *testing.T) {
	r := MustBoolRel(2, []int{0, 1}, []int{1, 0}, []int{0, 1})
	if r.Len() != 2 {
		t.Fatalf("dedup failed: %d", r.Len())
	}
	if !r.Has([]int{0, 1}) || r.Has([]int{1, 1}) {
		t.Fatal("membership wrong")
	}
	if r.Has([]int{0}) {
		t.Fatal("wrong arity accepted in Has")
	}
	if err := r.Add([]int{2, 0}); err == nil {
		t.Fatal("non-Boolean value accepted")
	}
	if _, err := NewBoolRel(0); err == nil {
		t.Fatal("arity 0 accepted")
	}
	if _, err := NewBoolRel(MaxArity + 1); err == nil {
		t.Fatalf("arity %d accepted", MaxArity+1)
	}
	ts := r.Tuples()
	if len(ts) != 2 || ts[0][0] != 0 || ts[0][1] != 1 || ts[1][0] != 1 {
		t.Fatalf("Tuples = %v", ts)
	}
}

func TestClosurePropertiesOfNamedRelations(t *testing.T) {
	cases := []struct {
		name                                          string
		r                                             *BoolRel
		zero, one, horn, dualHorn, bijunctive, affine bool
	}{
		{"xor", RelXor(), false, false, false, false, true, true},
		{"eq", RelEq(), true, true, true, true, true, true},
		{"1-in-3", RelOneInThree(), false, false, false, false, false, false},
		{"nae3", RelNAE3(), false, false, false, false, false, false},
		{"clause x|y", RelClause(true, true), false, true, false, true, true, false},
		{"clause !x|!y", RelClause(false, false), true, false, true, false, true, false},
		{"horn clause !x|!y|z", RelClause(false, false, true), true, true, true, false, false, false},
		{"implication !x|y", RelClause(false, true), true, true, true, true, true, false},
	}
	for _, c := range cases {
		if got := c.r.IsZeroValid(); got != c.zero {
			t.Errorf("%s: 0-valid = %v, want %v", c.name, got, c.zero)
		}
		if got := c.r.IsOneValid(); got != c.one {
			t.Errorf("%s: 1-valid = %v, want %v", c.name, got, c.one)
		}
		if got := c.r.IsHorn(); got != c.horn {
			t.Errorf("%s: Horn = %v, want %v", c.name, got, c.horn)
		}
		if got := c.r.IsDualHorn(); got != c.dualHorn {
			t.Errorf("%s: dual-Horn = %v, want %v", c.name, got, c.dualHorn)
		}
		if got := c.r.IsBijunctive(); got != c.bijunctive {
			t.Errorf("%s: bijunctive = %v, want %v", c.name, got, c.bijunctive)
		}
		if got := c.r.IsAffine(); got != c.affine {
			t.Errorf("%s: affine = %v, want %v", c.name, got, c.affine)
		}
	}
}

func TestClassify(t *testing.T) {
	// 2-SAT template: all binary clause types.
	twoSatTemplate := &Template{Rels: []*BoolRel{
		RelClause(true, true), RelClause(true, false), RelClause(false, false),
	}}
	classes := twoSatTemplate.Classify()
	if len(classes) != 1 || classes[0] != Bijunctive {
		t.Fatalf("2-SAT classes = %v", classes)
	}
	// 1-in-3 template: NP-complete side of the dichotomy.
	hard := &Template{Rels: []*BoolRel{RelOneInThree()}}
	if hard.IsTractable() {
		t.Fatal("1-in-3 classified tractable")
	}
	// Horn template.
	hornTemplate := &Template{Rels: []*BoolRel{
		RelClause(false, false, true), RelClause(true), RelClause(false),
	}}
	found := false
	for _, c := range hornTemplate.Classify() {
		if c == Horn {
			found = true
		}
	}
	if !found {
		t.Fatalf("Horn template classes = %v", hornTemplate.Classify())
	}
}

// bruteForce enumerates all 2^n assignments.
func bruteForce(p *Instance) []int {
	for mask := 0; mask < 1<<p.NumVars; mask++ {
		assign := make([]int, p.NumVars)
		for v := 0; v < p.NumVars; v++ {
			assign[v] = (mask >> v) & 1
		}
		if p.Satisfies(assign) {
			return assign
		}
	}
	return nil
}

// randomInstance builds a random instance over the template.
func randomInstance(rng *rand.Rand, tpl *Template, vars, cons int) *Instance {
	p := &Instance{Template: tpl, NumVars: vars}
	for c := 0; c < cons; c++ {
		ri := rng.Intn(len(tpl.Rels))
		scope := make([]int, tpl.Rels[ri].Arity())
		for i := range scope {
			scope[i] = rng.Intn(vars)
		}
		p.Cons = append(p.Cons, Application{Rel: ri, Scope: scope})
	}
	return p
}

// solver is the shape of the class solvers.
type solver func(context.Context, *Instance) (csp.Result, error)

func checkSolverAgainstBruteForce(t *testing.T, name string, tpl *Template,
	solve solver, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		p := randomInstance(rng, tpl, 2+rng.Intn(5), 1+rng.Intn(6))
		checkAgainstBruteForce(t, name, trial, p, solve)
	}
}

// checkAgainstBruteForce runs one solve and holds it to enumeration, and
// requires a solve under an expired context to end Aborted, without error.
func checkAgainstBruteForce(t *testing.T, name string, trial int, p *Instance, solve solver) {
	t.Helper()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := solve(expired, p); err != nil || !res.Aborted || res.Found {
		t.Fatalf("%s trial %d: under an expired context found=%v aborted=%v err=%v", name, trial, res.Found, res.Aborted, err)
	}
	want := bruteForce(p) != nil
	res, err := solve(context.Background(), p)
	if err != nil {
		t.Fatalf("%s trial %d: %v", name, trial, err)
	}
	if res.Found != want || res.Aborted {
		t.Fatalf("%s trial %d: solver found=%v aborted=%v, brute=%v", name, trial, res.Found, res.Aborted, want)
	}
	if res.Found && !p.Satisfies(res.Solution) {
		t.Fatalf("%s trial %d: invalid assignment %v", name, trial, res.Solution)
	}
}

func TestSolveHornAgainstBruteForce(t *testing.T) {
	tpl := &Template{Rels: []*BoolRel{
		RelClause(false, false, true), // y∧z → x
		RelClause(false, true),        // y → x
		RelClause(true),               // x
		RelClause(false),              // ¬x
		RelClause(false, false),       // ¬x ∨ ¬y
	}}
	checkSolverAgainstBruteForce(t, "horn", tpl, SolveHorn, 150, 31)
}

func TestSolveDualHornAgainstBruteForce(t *testing.T) {
	tpl := &Template{Rels: []*BoolRel{
		RelClause(true, true, false), // flip of horn
		RelClause(true, false),
		RelClause(true),
		RelClause(false),
		RelClause(true, true),
	}}
	checkSolverAgainstBruteForce(t, "dual-horn", tpl, SolveDualHorn, 150, 37)
}

func TestSolveTwoSatAgainstBruteForce(t *testing.T) {
	tpl := &Template{Rels: []*BoolRel{
		RelClause(true, true), RelClause(true, false), RelClause(false, false),
		RelClause(true), RelClause(false), RelXor(), RelEq(),
	}}
	checkSolverAgainstBruteForce(t, "2sat", tpl, SolveTwoSat, 200, 41)
}

func TestSolveAffineAgainstBruteForce(t *testing.T) {
	// x⊕y=1, x=y, x⊕y⊕z=0, x⊕y⊕z=1, units.
	xor3even := MustBoolRel(3, []int{0, 0, 0}, []int{0, 1, 1}, []int{1, 0, 1}, []int{1, 1, 0})
	xor3odd := MustBoolRel(3, []int{1, 0, 0}, []int{0, 1, 0}, []int{0, 0, 1}, []int{1, 1, 1})
	unit1 := MustBoolRel(1, []int{1})
	unit0 := MustBoolRel(1, []int{0})
	tpl := &Template{Rels: []*BoolRel{RelXor(), RelEq(), xor3even, xor3odd, unit1, unit0}}
	checkSolverAgainstBruteForce(t, "affine", tpl, SolveAffine, 200, 43)
}

func TestSolveConstant(t *testing.T) {
	tpl := &Template{Rels: []*BoolRel{RelEq()}}
	p := randomInstance(rand.New(rand.NewSource(1)), tpl, 4, 5)
	for value := range 2 {
		if res, err := SolveConstant(p, value); err != nil || !res.Found || !p.Satisfies(res.Solution) {
			t.Fatalf("constant %d: found=%v err=%v", value, res.Found, err)
		}
	}
	// Outside the class the constant assignment fails, and says so.
	p.Template = &Template{Rels: []*BoolRel{RelXor()}}
	if _, err := SolveConstant(p, 0); err == nil {
		t.Fatal("constant solve on a template that is not 0-valid gave no error")
	}
}

func TestCompileRejectsWrongClass(t *testing.T) {
	if _, err := CompileAffine(RelOneInThree()); err == nil {
		t.Fatal("1-in-3 compiled as affine")
	}
	// 1-in-3 and x∨y∨z are not bijunctive: their projection clauses admit
	// a tuple outside the relation (000 and 111 for 1-in-3, 000 for x∨y∨z).
	for _, r := range []*BoolRel{RelOneInThree(), RelClause(true, true, true)} {
		if r.IsBijunctive() {
			t.Fatalf("%v classified bijunctive", r)
		}
		if !clausesAdmit(CompileTwoSat(r), 3, 0) {
			t.Fatalf("%v: the projection clauses exclude 000", r)
		}
	}
	// Over 1-in-3, arc consistency keeps both values everywhere, and both
	// the least and the greatest values fail the constraint: the width-1
	// solvers say so instead of answering.
	p := &Instance{Template: &Template{Rels: []*BoolRel{RelOneInThree()}}, NumVars: 3,
		Cons: []Application{{Rel: 0, Scope: []int{0, 1, 2}}}}
	for name, solve := range map[string]solver{"Horn": SolveHorn, "dual Horn": SolveDualHorn} {
		if res, err := solve(context.Background(), p); err == nil {
			t.Fatalf("%s solver on 1-in-3: found=%v, no error", name, res.Found)
		}
	}
}

func TestCompileEmptyRelationIsUnsat(t *testing.T) {
	empty := MustBoolRel(2)
	tpl := &Template{Rels: []*BoolRel{empty}}
	p := &Instance{Template: tpl, NumVars: 2, Cons: []Application{{Rel: 0, Scope: []int{0, 1}}}}
	for name, solve := range map[string]solver{"horn": SolveHorn, "dual horn": SolveDualHorn, "2sat": SolveTwoSat, "affine": SolveAffine} {
		if res, err := solve(context.Background(), p); err != nil || res.Found || res.Aborted {
			t.Fatalf("empty-relation %s: found=%v aborted=%v err=%v", name, res.Found, res.Aborted, err)
		}
	}
}

func TestRepeatedScopeVariables(t *testing.T) {
	// Constraint XOR(x,x) is unsatisfiable; EQ(x,x) is trivially true.
	tpl := &Template{Rels: []*BoolRel{RelXor(), RelEq()}}
	unsat := &Instance{Template: tpl, NumVars: 1, Cons: []Application{{Rel: 0, Scope: []int{0, 0}}}}
	sat := &Instance{Template: tpl, NumVars: 1, Cons: []Application{{Rel: 1, Scope: []int{0, 0}}}}
	for name, solve := range map[string]solver{"2sat": SolveTwoSat, "affine": SolveAffine} {
		if res, err := solve(context.Background(), unsat); err != nil || res.Found {
			t.Fatalf("XOR(x,x) %s: found=%v err=%v", name, res.Found, err)
		}
		if res, err := solve(context.Background(), sat); err != nil || !res.Found {
			t.Fatalf("EQ(x,x) %s: found=%v err=%v", name, res.Found, err)
		}
	}
}

func TestSolveDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	templates := []*Template{
		{Rels: []*BoolRel{RelClause(false, false, true), RelClause(true), RelClause(false)}}, // Horn
		{Rels: []*BoolRel{RelClause(true, true), RelClause(false, false)}},                   // bijunctive
		{Rels: []*BoolRel{RelXor(), RelEq()}},                                                // affine
		{Rels: []*BoolRel{RelOneInThree()}},                                                  // NP side
	}
	for ti, tpl := range templates {
		for trial := 0; trial < 60; trial++ {
			p := randomInstance(rng, tpl, 2+rng.Intn(4), 1+rng.Intn(5))
			want := bruteForce(p) != nil
			res, class, err := Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("template %d trial %d: %v", ti, trial, err)
			}
			ok := res.Found
			if ok != want {
				t.Fatalf("template %d trial %d: solve=%v brute=%v (class %v)", ti, trial, ok, want, class)
			}
			if ok && !p.Satisfies(res.Solution) {
				t.Fatalf("template %d trial %d: invalid assignment", ti, trial)
			}
			if ti == 3 && class != nil {
				t.Fatalf("1-in-3 dispatched to class %v", *class)
			}
			if ti != 3 && ok && class == nil {
				t.Fatalf("template %d solved generically", ti)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	tpl := &Template{Rels: []*BoolRel{RelXor()}}
	bad := []*Instance{
		{Template: tpl, NumVars: 2, Cons: []Application{{Rel: 1, Scope: []int{0, 1}}}},
		{Template: tpl, NumVars: 2, Cons: []Application{{Rel: 0, Scope: []int{0}}}},
		{Template: tpl, NumVars: 2, Cons: []Application{{Rel: 0, Scope: []int{0, 2}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad instance %d accepted", i)
		}
	}
}

func TestToCSPAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	tpl := &Template{Rels: []*BoolRel{RelOneInThree(), RelNAE3()}}
	for trial := 0; trial < 60; trial++ {
		p := randomInstance(rng, tpl, 3+rng.Intn(3), 1+rng.Intn(4))
		want := bruteForce(p) != nil
		res, err := SolveGeneric(context.Background(), p, csp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != want {
			t.Fatalf("trial %d: generic=%v brute=%v", trial, res.Found, want)
		}
		if res.Found && !p.Satisfies(res.Solution) {
			t.Fatalf("trial %d: invalid generic assignment", trial)
		}
	}
}
