package csp

import (
	"math/rand"
	"testing"
)

func TestCBJAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 150; trial++ {
		p := randomInstance(rng, 2+rng.Intn(4), 2+rng.Intn(3), 0.7, 0.4)
		want := len(bruteForce(p)) > 0
		for _, ord := range []VarOrder{MRV, Lex} {
			res := SolveCBJ(p, Options{VarOrder: ord})
			if res.Found != want {
				t.Fatalf("trial %d ord %v: cbj=%v brute=%v", trial, ord, res.Found, want)
			}
			if res.Found && !p.Satisfies(res.Solution) {
				t.Fatalf("trial %d: invalid CBJ solution", trial)
			}
		}
	}
}

func TestCBJTrivialCases(t *testing.T) {
	empty := NewInstance(0, 2)
	if res := SolveCBJ(empty, Options{}); !res.Found {
		t.Fatal("empty instance unsolved")
	}
	unsat := NewInstance(1, 2)
	unsat.MustAddConstraint([]int{0}, NewTable(1))
	if res := SolveCBJ(unsat, Options{}); res.Found {
		t.Fatal("empty-table instance solved")
	}
	wiped := NewInstance(1, 2)
	wiped.Domains = [][]int{{}}
	if res := SolveCBJ(wiped, Options{}); res.Found {
		t.Fatal("wiped domain solved")
	}
}

func TestCBJNodeLimit(t *testing.T) {
	p := NewInstance(8, 4)
	neq := NotEqual(4)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			p.MustAddConstraint([]int{i, j}, neq)
		}
	}
	res := SolveCBJ(p, Options{NodeLimit: 5})
	if res.Found || !res.Aborted || res.Stats.Nodes != 5 {
		t.Fatalf("node limit ignored or overshot (want 5 nodes): %+v", res)
	}
}

// NotEqual builds a binary disequality table (test helper).
func NotEqual(d int) *Table {
	t := NewTable(2)
	for a := 0; a < d; a++ {
		for b := 0; b < d; b++ {
			if a != b {
				t.Add([]int{a, b})
			}
		}
	}
	return t
}

// The classic CBJ win: a conflict between the first and last variable in
// static order, with irrelevant variables in between. BT re-enumerates the
// middle assignments for every combination; CBJ jumps straight back to the
// culprit.
func TestCBJJumpsOverIrrelevantVariables(t *testing.T) {
	const n, d = 10, 3
	p := NewInstance(n, d)
	// Variable 0 may be 1 or 2 (unary constraint)...
	u := NewTable(1)
	u.Add([]int{1})
	u.Add([]int{2})
	p.MustAddConstraint([]int{0}, u)
	// ...but the last variable requires variable 0 to be 0: unsatisfiable.
	last := NewTable(2)
	last.Add([]int{0, 0})
	p.MustAddConstraint([]int{0, n - 1}, last)

	bt := Solve(p, Options{Algorithm: BT, VarOrder: Lex})
	cbj := SolveCBJ(p, Options{VarOrder: Lex})
	if bt.Found || cbj.Found {
		t.Fatal("unsatisfiable instance solved")
	}
	if cbj.Stats.Nodes*100 > bt.Stats.Nodes {
		t.Fatalf("CBJ did not jump: cbj=%d nodes, bt=%d nodes", cbj.Stats.Nodes, bt.Stats.Nodes)
	}
}

// On satisfiable instances CBJ must find valid solutions and never expand
// more nodes than BT under the same static order.
func TestCBJNeverWorseThanBTOnStaticOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 60; trial++ {
		p := randomInstance(rng, 4+rng.Intn(4), 2+rng.Intn(2), 0.6, 0.45)
		bt := Solve(p, Options{Algorithm: BT, VarOrder: Lex})
		cbj := SolveCBJ(p, Options{VarOrder: Lex})
		if bt.Found != cbj.Found {
			t.Fatalf("trial %d: bt=%v cbj=%v", trial, bt.Found, cbj.Found)
		}
		if cbj.Stats.Nodes > bt.Stats.Nodes {
			t.Fatalf("trial %d: CBJ expanded more nodes (%d) than BT (%d)", trial, cbj.Stats.Nodes, bt.Stats.Nodes)
		}
	}
}
