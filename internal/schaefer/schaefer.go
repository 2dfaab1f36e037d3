// Package schaefer implements Schaefer's dichotomy machinery for Boolean
// constraint-satisfaction problems CSP(B) over a two-element domain
// (Section 3 of the paper): classification of a constraint template into
// Schaefer's six polynomial classes via the characteristic closure
// properties (polymorphisms), together with a polynomial solver per class
// and generic search for templates outside all six classes, where CSP(B)
// is NP-complete.
//
// The six classes and their closure characterizations:
//
//	0-valid:    every relation contains the all-zero tuple
//	1-valid:    every relation contains the all-one tuple
//	Horn:       every relation is closed under coordinatewise AND
//	dual Horn:  every relation is closed under coordinatewise OR
//	bijunctive: every relation is closed under coordinatewise majority
//	affine:     every relation is closed under x ⊕ y ⊕ z
//
// A relation is a bitset over its 2^k tuple codes, k ≤ MaxArity. Each
// closure test reads that bitset whole, in O(|R|·k² + k·2^k), and never
// loops over pairs or triples of rows.
package schaefer

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxArity is the largest relation arity. The closure tests and the
// solvers' per-relation steps cost up to k·2^k, so this one bound keeps
// both classification and solving polynomial in the declared tables.
const MaxArity = 10

// codeSet is a set of tuple codes of arity at most MaxArity, one bit per
// code.
type codeSet [1 << MaxArity / 64]uint64

// BoolRel is a Boolean relation: a set of {0,1}-tuples of fixed arity,
// stored as a bitset over tuple codes (the code of a tuple is its binary
// value, first coordinate most significant).
type BoolRel struct {
	arity int
	n     int
	rows  codeSet
}

// NewBoolRel creates an empty relation of the given arity (1..MaxArity).
func NewBoolRel(arity int) (*BoolRel, error) {
	if arity < 1 || arity > MaxArity {
		return nil, fmt.Errorf("schaefer: arity %d outside [1,%d]", arity, MaxArity)
	}
	return &BoolRel{arity: arity}, nil
}

// MustBoolRel builds a relation from tuples, panicking on error.
func MustBoolRel(arity int, tuples ...[]int) *BoolRel {
	r, err := NewBoolRel(arity)
	if err != nil {
		panic(err)
	}
	for _, t := range tuples {
		if err := r.Add(t); err != nil {
			panic(err)
		}
	}
	return r
}

// Arity returns the relation's arity.
func (r *BoolRel) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *BoolRel) Len() int { return r.n }

// Add inserts a tuple of 0/1 values.
func (r *BoolRel) Add(t []int) error {
	code, err := r.encode(t)
	if err != nil {
		return err
	}
	r.insert(code)
	return nil
}

// Has reports membership of a 0/1 tuple.
func (r *BoolRel) Has(t []int) bool {
	code, err := r.encode(t)
	return err == nil && r.has(code)
}

func (r *BoolRel) has(code int) bool { return r.rows[code>>6]>>(code&63)&1 == 1 }

func (r *BoolRel) insert(code int) {
	if !r.has(code) {
		r.rows[code>>6] |= 1 << (code & 63)
		r.n++
	}
}

// next returns the least code at or after c in the relation, or -1.
func (r *BoolRel) next(c int) int {
	w := c >> 6
	if w >= len(r.rows) {
		return -1
	}
	word := r.rows[w] &^ (1<<(c&63) - 1)
	for word == 0 {
		if w++; w == len(r.rows) {
			return -1
		}
		word = r.rows[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// ones is the code of the all-one tuple.
func (r *BoolRel) ones() int { return 1<<r.arity - 1 }

func (r *BoolRel) encode(t []int) (int, error) {
	if len(t) != r.arity {
		return 0, fmt.Errorf("schaefer: tuple arity %d for relation arity %d", len(t), r.arity)
	}
	code := 0
	for _, v := range t {
		if v != 0 && v != 1 {
			return 0, fmt.Errorf("schaefer: non-Boolean value %d", v)
		}
		code = code<<1 | v
	}
	return code, nil
}

// decode writes the tuple of code into t, which has the relation's arity.
func (r *BoolRel) decode(code int, t []int) {
	for i := r.arity - 1; i >= 0; i-- {
		t[i] = code & 1
		code >>= 1
	}
}

// Tuples returns all tuples in ascending code order.
func (r *BoolRel) Tuples() [][]int {
	out := make([][]int, 0, r.n)
	for c := r.next(0); c >= 0; c = r.next(c + 1) {
		t := make([]int, r.arity)
		r.decode(c, t)
		out = append(out, t)
	}
	return out
}

func (r *BoolRel) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range r.Tuples() {
		if i > 0 {
			b.WriteByte(' ')
		}
		for _, v := range t {
			fmt.Fprintf(&b, "%d", v)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// bitCodes[b] is the set of codes whose bit b is set.
var bitCodes = func() (m [MaxArity]codeSet) {
	for c := range 1 << MaxArity {
		for b := range MaxArity {
			if c>>b&1 == 1 {
				m[b][c>>6] |= 1 << (c & 63)
			}
		}
	}
	return m
}()

// column returns the codes whose coordinate i, in a tuple of arity k, is a.
// It holds codes of 2^k and beyond too; callers meet it with arity-k codes.
func column(k, i, a int) codeSet {
	s := bitCodes[k-1-i]
	if a == 0 {
		for w := range s {
			s[w] = ^s[w]
		}
	}
	return s
}

// meets reports whether some row of the relation lies in both a and b.
func (r *BoolRel) meets(a, b *codeSet) bool {
	for w, x := range r.rows {
		if x&a[w]&b[w] != 0 {
			return true
		}
	}
	return false
}

// Closure properties (pointwise applications of Boolean operations).

// IsZeroValid reports whether the relation contains the all-zero tuple.
func (r *BoolRel) IsZeroValid() bool { return r.has(0) }

// IsOneValid reports whether the relation contains the all-one tuple.
func (r *BoolRel) IsOneValid() bool { return r.has(r.ones()) }

// IsHorn reports closure under coordinatewise AND.
func (r *BoolRel) IsHorn() bool { return r.andClosed(0) }

// IsDualHorn reports closure under coordinatewise OR: complementing every
// value turns OR into AND.
func (r *BoolRel) IsDualHorn() bool { return r.andClosed(r.ones()) }

// andClosed reports whether {c ⊕ flip : c a row} is closed under AND. Let
// U(x) be the AND of the rows ⊇ x, defined when there is one. An AND-closed
// relation holds every U(x), and for rows a and b, U(a AND b) = a AND b, so
// the relation is AND-closed exactly when it holds every defined U(x). One
// superset transform over the 2^k codes computes them all.
func (r *BoolRel) andClosed(flip int) bool {
	const undefined = 1<<(MaxArity+1) - 1 // every code bit, and a flag no row has
	n := 1 << r.arity
	var u [1 << MaxArity]uint16
	for x := range n {
		u[x] = undefined
		if r.has(x ^ flip) {
			u[x] = uint16(x)
		}
	}
	for b := 1; b < n; b <<= 1 {
		for base := 0; base < n; base += 2 * b {
			for x := base; x < base+b; x++ {
				u[x] &= u[x+b]
			}
		}
	}
	for x := range n {
		if u[x] < 1<<MaxArity && !r.has(int(u[x])^flip) {
			return false
		}
	}
	return true
}

// IsBijunctive reports closure under the coordinatewise majority
// operation. Every relation lies inside the conjunction of its unary and
// binary projections, and a majority-closed one equals it (Baker–Pixley),
// so the relation is bijunctive exactly when no other code satisfies every
// clause CompileTwoSat reads off those projections.
func (r *BoolRel) IsBijunctive() bool {
	var sat codeSet
	for c := range 1 << r.arity {
		sat[c>>6] |= 1 << (c & 63)
	}
	for _, c := range CompileTwoSat(r) {
		f0, f1 := r.falsifiers(c[0]), r.falsifiers(c[1])
		for w := range sat {
			sat[w] &^= f0[w] & f1[w]
		}
	}
	return sat == r.rows
}

// IsAffine reports closure under x ⊕ y ⊕ z, i.e. the relation is the
// solution set of a system of linear equations over GF(2). A nonempty such
// relation is a coset t0 ⊕ V, and V is spanned by {t ⊕ t0 : t a row}, so
// it is affine exactly when it has 2^rank rows.
func (r *BoolRel) IsAffine() bool {
	basis, _ := r.directions()
	rank := 0
	for _, v := range basis {
		if v != 0 {
			rank++
		}
	}
	return r.n == 0 || r.n == 1<<rank
}

// directions returns the relation's least row t0 and a reduced echelon
// basis of the span V of {t ⊕ t0 : t a row}: basis[b] is the vector whose
// highest bit is b, or 0, and no other vector has bit b. When the relation
// is affine, t0 has no bit that is the highest bit of a vector of V (else
// t0 ⊕ v would be a smaller row), so the vectors come in ascending order
// with the rows, and the first vector with highest bit b, the least one, is
// kept as it is: it has no other such bit. The basis is reduced as built.
func (r *BoolRel) directions() (basis [MaxArity]int, t0 int) {
	t0 = r.next(0)
	for c := t0; c >= 0; c = r.next(c + 1) {
		v := c ^ t0
		for b := r.arity - 1; b >= 0 && v != 0; b-- {
			if v>>b&1 == 0 {
				continue
			}
			if basis[b] == 0 {
				basis[b] = v
				break
			}
			v ^= basis[b]
		}
	}
	return basis, t0
}

// Class identifies one of Schaefer's tractable classes.
type Class int

const (
	ZeroValid Class = iota
	OneValid
	Horn
	DualHorn
	Bijunctive
	Affine
)

func (c Class) String() string {
	switch c {
	case ZeroValid:
		return "0-valid"
	case OneValid:
		return "1-valid"
	case Horn:
		return "Horn"
	case DualHorn:
		return "dual-Horn"
	case Bijunctive:
		return "bijunctive"
	case Affine:
		return "affine"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Template is a Boolean constraint language: a named set of relations. The
// non-uniform problem CSP(B) fixes the template and takes conjunctions of
// its relations applied to variables as input.
type Template struct {
	Rels []*BoolRel
}

// classTests are Schaefer's classes with their closure tests, in the order
// Classify lists them and Solve tries them.
var classTests = [...]struct {
	class Class
	holds func(*BoolRel) bool
}{
	{ZeroValid, (*BoolRel).IsZeroValid},
	{OneValid, (*BoolRel).IsOneValid},
	{Horn, (*BoolRel).IsHorn},
	{DualHorn, (*BoolRel).IsDualHorn},
	{Bijunctive, (*BoolRel).IsBijunctive},
	{Affine, (*BoolRel).IsAffine},
}

// all reports whether every relation of the template passes the test.
func (t *Template) all(holds func(*BoolRel) bool) bool {
	for _, r := range t.Rels {
		if !holds(r) {
			return false
		}
	}
	return true
}

// Classify returns the Schaefer classes containing every relation of the
// template. An empty result means CSP(B) is NP-complete (Schaefer's
// dichotomy); a nonempty result certifies polynomial-time solvability.
func (t *Template) Classify() []Class {
	var out []Class
	for _, ct := range classTests {
		if t.all(ct.holds) {
			out = append(out, ct.class)
		}
	}
	return out
}

// first returns the first class Classify would list, without testing the
// others: the class whose solver Solve runs.
func (t *Template) first() (Class, bool) {
	for _, ct := range classTests {
		if t.all(ct.holds) {
			return ct.class, true
		}
	}
	return 0, false
}

// IsTractable reports whether the template falls in at least one Schaefer
// class.
func (t *Template) IsTractable() bool {
	_, ok := t.first()
	return ok
}

// Application is one constraint of a template instance: relation index into
// the template and the variable scope.
type Application struct {
	Rel   int
	Scope []int
}

// Instance is an instance of CSP(B) for a Boolean template B.
type Instance struct {
	Template *Template
	NumVars  int
	Cons     []Application
}

// Validate checks scopes and relation indices.
func (p *Instance) Validate() error {
	for ci, c := range p.Cons {
		if c.Rel < 0 || c.Rel >= len(p.Template.Rels) {
			return fmt.Errorf("schaefer: constraint %d uses unknown relation %d", ci, c.Rel)
		}
		if len(c.Scope) != p.Template.Rels[c.Rel].Arity() {
			return fmt.Errorf("schaefer: constraint %d scope length %d for arity %d", ci, len(c.Scope), p.Template.Rels[c.Rel].Arity())
		}
		for _, v := range c.Scope {
			if v < 0 || v >= p.NumVars {
				return fmt.Errorf("schaefer: constraint %d variable %d outside [0,%d)", ci, v, p.NumVars)
			}
		}
	}
	return nil
}

// Satisfies reports whether the 0/1 assignment satisfies the instance.
func (p *Instance) Satisfies(assign []int) bool {
	if len(assign) != p.NumVars {
		return false
	}
	var row [MaxArity]int
	for _, c := range p.Cons {
		r := row[:len(c.Scope)]
		for i, v := range c.Scope {
			r[i] = assign[v]
		}
		if !p.Template.Rels[c.Rel].Has(r) {
			return false
		}
	}
	return true
}

// Named standard relations.

// RelOneInThree is the positive 1-in-3-SAT relation {100,010,001}: in none
// of Schaefer's classes, so CSP over it is NP-complete.
func RelOneInThree() *BoolRel {
	return MustBoolRel(3, []int{1, 0, 0}, []int{0, 1, 0}, []int{0, 0, 1})
}

// RelNAE3 is the not-all-equal relation of arity 3.
func RelNAE3() *BoolRel {
	r := MustBoolRel(3)
	for code := 1; code < 7; code++ {
		r.insert(code)
	}
	return r
}

// RelClause builds the relation of a disjunctive clause over the given
// literal signs: signs[i] true means the i-th position appears positively.
// E.g. signs (true,false) is (x ∨ ¬y).
func RelClause(signs ...bool) *BoolRel {
	r := MustBoolRel(len(signs))
	t := make([]int, len(signs))
	for code := 0; code < 1<<len(signs); code++ {
		r.decode(code, t)
		for i, s := range signs {
			if (t[i] == 1) == s {
				r.insert(code)
				break
			}
		}
	}
	return r
}

// RelXor is the binary relation x ⊕ y = 1.
func RelXor() *BoolRel {
	return MustBoolRel(2, []int{0, 1}, []int{1, 0})
}

// RelEq is the binary equality relation.
func RelEq() *BoolRel {
	return MustBoolRel(2, []int{0, 0}, []int{1, 1})
}
