package schaefer

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomRel holds each code of the arity with probability density.
func randomRel(rng *rand.Rand, arity int, density float64) *BoolRel {
	r := MustBoolRel(arity)
	for code := 0; code < 1<<uint(arity); code++ {
		if rng.Float64() < density {
			r.insert(code)
		}
	}
	return r
}

// codes lists the relation's codes in ascending order.
func codes(r *BoolRel) []int {
	var out []int
	for c := r.next(0); c >= 0; c = r.next(c + 1) {
		out = append(out, c)
	}
	return out
}

// flipped complements every value of the relation (0 ↔ 1).
func flipped(r *BoolRel) *BoolRel {
	out := MustBoolRel(r.arity)
	for _, c := range codes(r) {
		out.insert(c ^ r.ones())
	}
	return out
}

// The polymorphisms, on tuple codes.
var (
	and2 = func(a, b int) int { return a & b }
	or2  = func(a, b int) int { return a | b }
	maj3 = func(a, b, c int) int { return a&b | a&c | b&c }
	xor3 = func(a, b, c int) int { return a ^ b ^ c }
)

// The definitional closure tests, the oracle for the bitset ones: every
// application of the operation to rows of R lies in R, checked over all
// |R|² pairs or |R|³ triples of rows.
func closedUnder2(r *BoolRel, op func(a, b int) int) bool {
	rows := codes(r)
	for _, a := range rows {
		for _, b := range rows {
			if !r.has(op(a, b)) {
				return false
			}
		}
	}
	return true
}

func closedUnder3(r *BoolRel, op func(a, b, c int) int) bool {
	rows := codes(r)
	for _, a := range rows {
		for _, b := range rows {
			for _, c := range rows {
				if !r.has(op(a, b, c)) {
					return false
				}
			}
		}
	}
	return true
}

// oracleClasses returns the definitional verdicts in classTests order.
func oracleClasses(r *BoolRel) [len(classTests)]bool {
	return [...]bool{r.has(0), r.has(r.ones()), closedUnder2(r, and2), closedUnder2(r, or2),
		closedUnder3(r, maj3), closedUnder3(r, xor3)}
}

// closure returns the least relation containing r that is closed under the
// class's operation (0/1-valid: r with the constant tuple), by the
// definitional fixpoint.
func closure(r *BoolRel, class Class) *BoolRel {
	out := MustBoolRel(r.arity)
	for _, c := range codes(r) {
		out.insert(c)
	}
	for changed := true; changed; {
		changed = false
		add := func(c int) {
			if !out.has(c) {
				out.insert(c)
				changed = true
			}
		}
		rows := codes(out)
		switch class {
		case ZeroValid:
			add(0)
		case OneValid:
			add(out.ones())
		case Horn, DualHorn:
			op := and2
			if class == DualHorn {
				op = or2
			}
			for _, a := range rows {
				for _, b := range rows {
					add(op(a, b))
				}
			}
		case Bijunctive, Affine:
			op := maj3
			if class == Affine {
				op = xor3
			}
			for _, a := range rows {
				for _, b := range rows {
					for _, c := range rows {
						add(op(a, b, c))
					}
				}
			}
		}
	}
	return out
}

// closedRel closes a few random rows of the arity under the class's
// operation.
func closedRel(rng *rand.Rand, arity int, class Class, seeds int) *BoolRel {
	r := MustBoolRel(arity)
	for range seeds {
		r.insert(rng.Intn(1 << arity))
	}
	return closure(r, class)
}

// clausesAdmit reports whether the arity-k tuple of code satisfies every
// clause.
func clausesAdmit(clauses []twoClause, k, code int) bool {
	holds := func(l int) bool { return code>>(k-1-l>>1)&1 == l&1 }
	for _, c := range clauses {
		if !holds(c[0]) && !holds(c[1]) {
			return false
		}
	}
	return true
}

// The bitset closure tests equal the definitional ones on every relation
// of arity at most 3, and on random relations of arity 4 to MaxArity:
// sparse ones, ones closed under each class's operation, and closed ones
// with one code toggled, which mostly fall just outside the class.
func TestClosureChecksAreDecidableProperty(t *testing.T) {
	var verdicts [len(classTests)][2]int // at arity 4 and above
	check := func(r *BoolRel) {
		t.Helper()
		want := oracleClasses(r)
		for i, ct := range classTests {
			got := ct.holds(r)
			if got != want[i] {
				t.Fatalf("%v (arity %d): %v = %v, the definition says %v", r, r.arity, ct.class, got, want[i])
			}
			if r.arity >= 4 && got {
				verdicts[i][1]++
			} else if r.arity >= 4 {
				verdicts[i][0]++
			}
		}
	}
	for k := 1; k <= 3; k++ {
		for mask := 0; mask < 1<<(1<<k); mask++ {
			r := MustBoolRel(k)
			for c := range 1 << k {
				if mask>>c&1 == 1 {
					r.insert(c)
				}
			}
			check(r)
		}
	}
	rng := rand.New(rand.NewSource(61))
	for k := 4; k <= MaxArity; k++ {
		for range 30 {
			check(randomRel(rng, k, 24/float64(int(1)<<k)))
			for _, ct := range classTests {
				r := closedRel(rng, k, ct.class, 2+rng.Intn(3))
				check(r)
				c := rng.Intn(1 << k)
				if r.has(c) {
					r.rows[c>>6] &^= 1 << (c & 63)
					r.n--
				} else {
					r.insert(c)
				}
				check(r)
			}
		}
	}
	for i, ct := range classTests {
		if verdicts[i][0] == 0 || verdicts[i][1] == 0 {
			t.Errorf("%v: %d relations of arity 4 and above outside the class, %d inside; want both", ct.class, verdicts[i][0], verdicts[i][1])
		}
	}
	t.Logf("verdicts (outside, inside) at arity >= 4: %v", verdicts)
}

// Property: Horn and dual-Horn are exchanged by complementing values
// (x ↦ 1-x), as are 0-valid and 1-valid.
func TestFlipDualityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, 2+rng.Intn(3), 0.5)
		fl := flipped(r)
		if r.IsHorn() != fl.IsDualHorn() || r.IsDualHorn() != fl.IsHorn() {
			return false
		}
		if r.IsZeroValid() != fl.IsOneValid() || r.IsOneValid() != fl.IsZeroValid() {
			return false
		}
		// Bijunctive and affine are self-dual under flipping.
		return r.IsBijunctive() == fl.IsBijunctive() && r.IsAffine() == fl.IsAffine()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every row satisfies the projection clauses, and they define
// exactly the relation when, and only when, it is majority-closed.
func TestCompileTwoSatExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		r := randomRel(rng, k, 0.5)
		if rng.Intn(2) == 0 {
			r = closedRel(rng, k, Bijunctive, 1+rng.Intn(4))
		}
		clauses := CompileTwoSat(r)
		exact := true
		for code := range 1 << k {
			admitted := clausesAdmit(clauses, k, code)
			if r.has(code) && !admitted {
				return false
			}
			exact = exact && admitted == r.has(code)
		}
		return exact == closedUnder3(r, maj3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: affine compilation yields a system whose solution set is the
// relation, and refuses exactly the relations that are not affine.
func TestCompileAffineExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		r := randomRel(rng, k, 0.5)
		if rng.Intn(2) == 0 {
			r = closedRel(rng, k, Affine, 1+rng.Intn(4))
		}
		rows, err := CompileAffine(r)
		if err != nil {
			return !closedUnder3(r, xor3)
		}
		tup := make([]int, k)
		for code := range 1 << k {
			r.decode(code, tup)
			sat := true
			for _, row := range rows {
				parity := 0
				for _, pos := range row.coeffs {
					parity ^= tup[pos]
				}
				if parity != row.rhs {
					sat = false
					break
				}
			}
			if sat != r.has(code) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Every class solver agrees with enumeration on instances over random
// templates closed under its class's operation, with units of both values
// among them so the constant assignments do not apply.
func TestSolversOnRandomClosedTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, tc := range []struct {
		class Class
		solve solver
	}{
		{Horn, SolveHorn}, {DualHorn, SolveDualHorn}, {Bijunctive, SolveTwoSat}, {Affine, SolveAffine},
	} {
		for trial := range 150 {
			tpl := &Template{Rels: []*BoolRel{
				closedRel(rng, 1+rng.Intn(4), tc.class, 1+rng.Intn(3)),
				closedRel(rng, 1+rng.Intn(4), tc.class, 1+rng.Intn(3)),
				MustBoolRel(1, []int{0}), MustBoolRel(1, []int{1}),
			}}
			p := randomInstance(rng, tpl, 2+rng.Intn(6), 1+rng.Intn(8))
			checkAgainstBruteForce(t, tc.class.String(), trial, p, tc.solve)
		}
	}
}
