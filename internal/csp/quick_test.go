package csp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"csdb/internal/relation"
)

// Property: normalization (duplicate-variable elimination + consolidation)
// never changes the solution set, even with repeated scope variables and
// duplicate scopes.
func TestNormalizePreservesSolutionsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewInstance(3, 3)
		for c := 0; c < 4; c++ {
			arity := 1 + rng.Intn(3)
			scope := make([]int, arity)
			for i := range scope {
				scope[i] = rng.Intn(3)
			}
			tab := NewTable(arity)
			rows := 1 << uint(arity)
			for r := 0; r < rows*2; r++ {
				row := make([]int, arity)
				for i := range row {
					row[i] = rng.Intn(3)
				}
				if rng.Float64() < 0.7 {
					tab.Add(row)
				}
			}
			p.MustAddConstraint(scope, tab)
		}
		q := p.Normalize()
		a, b := bruteForce(p), bruteForce(q)
		if len(a) != len(b) {
			return false
		}
		set := map[string]bool{}
		for _, s := range a {
			set[relation.Tuple(s).Key()] = true
		}
		for _, s := range b {
			if !set[relation.Tuple(s).Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of join solutions equals the number of enumerated
// solutions (Proposition 2.1, counting form).
func TestJoinCountsMatchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomInstance(rng, 2+rng.Intn(3), 2+rng.Intn(2), 0.8, 0.4)
		rel, err := JoinSolutions(p)
		if err != nil {
			return false
		}
		return int64(rel.Len()) == CountSolutions(p, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the content key (Table.Digest, confirmed by Table.Equal) is
// insertion-order independent and Clone preserves content.
func TestTableKeyCanonicalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := make([][]int, 5+rng.Intn(5))
		for i := range rows {
			rows[i] = []int{rng.Intn(3), rng.Intn(3)}
		}
		t1 := NewTable(2)
		for _, r := range rows {
			t1.Add(r)
		}
		t2 := NewTable(2)
		perm := rng.Perm(len(rows))
		for _, i := range perm {
			t2.Add(rows[i])
		}
		return t1.Digest() == t2.Digest() && t1.Equal(t2) && t2.Equal(t1) &&
			t1.Clone().Digest() == t1.Digest() && t1.Clone().Equal(t1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: every solution found by any algorithm satisfies the instance,
// and all algorithms agree (BT, FC, MAC, CBJ, Join).
func TestAllAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomInstance(rng, 3+rng.Intn(3), 2+rng.Intn(2), 0.7, 0.45)
		verdicts := []bool{
			Solve(p, Options{Algorithm: BT}).Found,
			Solve(p, Options{Algorithm: FC}).Found,
			Solve(p, Options{Algorithm: MAC}).Found,
			SolveCBJ(p, Options{}).Found,
			JoinSolve(p).Found,
		}
		for _, v := range verdicts[1:] {
			if v != verdicts[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ToStructures/FromStructures round trip preserves solvability
// with arbitrary (valid) instances.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomInstance(rng, 2+rng.Intn(3), 2+rng.Intn(2), 0.8, 0.4)
		a, b, err := ToStructures(p)
		if err != nil {
			return false
		}
		q, err := FromStructures(a, b)
		if err != nil {
			return false
		}
		return Solve(p, Options{}).Found == Solve(q, Options{}).Found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
