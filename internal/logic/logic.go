// Package logic implements the existential positive fragment ∃FO_{∧,+} of
// first-order logic — formulas built from atoms with conjunction and
// existential quantification only — and in particular its bounded-variable
// fragments ∃FO^k_{∧,+} that Section 6 of the paper connects to treewidth:
// a structure A has treewidth k iff its canonical query φ_A is expressible
// with k+1 variables (Proposition 6.1), and evaluating a bounded-variable
// formula has polynomial combined complexity, which yields the tractability
// of CSP(A(k), F) (Theorem 6.2).
//
// Formulas are evaluated bottom-up by translating each subformula into the
// relation of its satisfying assignments (over its free variables): a
// chain of quantifiers over a conjunction is one join of its atoms
// projected onto the free variables (relation.Eval) — the standard
// poly-time evaluation that the paper's complexity claims rest on.
package logic

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"csdb/internal/relation"
	"csdb/internal/structure"
)

// Formula is a node of an ∃FO_{∧,+} formula.
type Formula interface {
	// FreeVars returns the free variables, sorted.
	FreeVars() []string
	// String renders the formula.
	String() string
}

// Atom is an atomic formula R(x1,...,xn).
type Atom struct {
	Pred string
	Args []string
}

// FreeVars implements Formula.
func (a *Atom) FreeVars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range a.Args {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func (a *Atom) String() string {
	return a.Pred + "(" + strings.Join(a.Args, ",") + ")"
}

// And is a conjunction of formulas. An empty conjunction is "true".
type And struct {
	Conjuncts []Formula
}

// FreeVars implements Formula.
func (c *And) FreeVars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range c.Conjuncts {
		for _, v := range f.FreeVars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

func (c *And) String() string {
	if len(c.Conjuncts) == 0 {
		return "true"
	}
	parts := make([]string, len(c.Conjuncts))
	for i, f := range c.Conjuncts {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, " & ") + ")"
}

// Exists is existential quantification over one variable.
type Exists struct {
	Var  string
	Body Formula
}

// FreeVars implements Formula.
func (e *Exists) FreeVars() []string {
	var out []string
	for _, v := range e.Body.FreeVars() {
		if v != e.Var {
			out = append(out, v)
		}
	}
	return out
}

func (e *Exists) String() string {
	return "E" + e.Var + "." + e.Body.String()
}

// NumVariables returns the number of distinct variable names (free or
// bound) occurring in the formula — the resource measured by the
// bounded-variable fragments ∃FO^k.
func NumVariables(f Formula) int {
	seen := make(map[string]bool)
	collectVars(f, seen)
	return len(seen)
}

func collectVars(f Formula, seen map[string]bool) {
	switch t := f.(type) {
	case *Atom:
		for _, v := range t.Args {
			seen[v] = true
		}
	case *And:
		for _, c := range t.Conjuncts {
			collectVars(c, seen)
		}
	case *Exists:
		seen[t.Var] = true
		collectVars(t.Body, seen)
	default:
		panic(fmt.Sprintf("logic: unknown formula node %T", f))
	}
}

// Size returns the number of nodes of the formula tree.
func Size(f Formula) int {
	switch t := f.(type) {
	case *Atom:
		return 1
	case *And:
		n := 1
		for _, c := range t.Conjuncts {
			n += Size(c)
		}
		return n
	case *Exists:
		return 1 + Size(t.Body)
	default:
		panic(fmt.Sprintf("logic: unknown formula node %T", f))
	}
}

// SatRelation computes the relation of satisfying assignments of f over db:
// a relation whose attributes are f's free variables, in FreeVars order,
// containing exactly the assignments making f true. A chain of quantifiers
// over a conjunction, ∃x̄ (φ1 ∧ … ∧ φn), is one evaluation of the join of
// the conjuncts' atoms projected onto the free variables; a quantified
// conjunct is evaluated first and joins as one more atom. Atoms of
// predicates missing from db's vocabulary denote empty relations; arity
// mismatches are errors.
func SatRelation(f Formula, db *structure.Structure) (*relation.Relation, error) {
	body, bound := f, []string(nil)
	for e, ok := body.(*Exists); ok; e, ok = body.(*Exists) {
		body, bound = e.Body, append(bound, e.Var)
	}
	lits, err := literals(body, db, nil)
	if err != nil {
		return nil, err
	}
	// The free variables are the literals' less the bound ones, sorted as
	// FreeVars sorts them, which would walk the subformulas again.
	var free []string
	for _, l := range lits {
		for _, v := range l.Args {
			if !slices.Contains(bound, v) && !slices.Contains(free, v) {
				free = append(free, v)
			}
		}
	}
	sort.Strings(free)
	if bound != nil && db.Size() == 0 {
		// A quantifier over an empty domain yields false, even when the
		// quantified variable does not occur.
		return relation.New(free...)
	}
	return relation.Eval(context.Background(), lits, free)
}

// literals appends the atoms of the conjunction f to dst, each an atom's
// arguments over db's relation of its predicate, and a quantified conjunct
// as its satisfying relation over its free variables.
func literals(f Formula, db *structure.Structure, dst []relation.Literal) ([]relation.Literal, error) {
	switch t := f.(type) {
	case *Atom:
		arity, ok := db.Voc().Arity(t.Pred)
		if ok && arity != len(t.Args) {
			return nil, fmt.Errorf("logic: predicate %s has arity %d, used with %d arguments", t.Pred, arity, len(t.Args))
		}
		rows := db.Rel(t.Pred)
		if !ok {
			rows = relation.NewTable(len(t.Args))
		}
		return append(dst, relation.Literal{Args: t.Args, Rows: rows}), nil
	case *And:
		var err error
		for _, c := range t.Conjuncts {
			if dst, err = literals(c, db, dst); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case *Exists:
		r, err := SatRelation(t, db)
		if err != nil {
			return nil, err
		}
		return append(dst, relation.Literal{Args: r.Attrs(), Rows: &r.Table}), nil
	default:
		return nil, fmt.Errorf("logic: unknown formula node %T", f)
	}
}

// Holds reports whether a sentence (no free variables) is true in db.
func Holds(f Formula, db *structure.Structure) (bool, error) {
	if fv := f.FreeVars(); len(fv) != 0 {
		return false, fmt.Errorf("logic: Holds on a formula with free variables %v", fv)
	}
	r, err := SatRelation(f, db)
	if err != nil {
		return false, err
	}
	return !r.Empty(), nil
}

// StructureSentence builds the canonical sentence φ_A of a structure
// (Proposition 2.3): the existential closure of the conjunction of A's
// facts, with one variable per domain element. It is true in B iff there is
// a homomorphism A → B. Note: this naive form uses |A| variables; use
// treewidth.BuildFormula for the (k+1)-variable form of Proposition 6.1.
func StructureSentence(a *structure.Structure) Formula {
	varName := func(i int) string { return fmt.Sprintf("x%d", i) }
	var conj []Formula
	for _, sym := range a.Voc().Symbols() {
		for _, t := range a.Rel(sym.Name).Tuples() {
			args := make([]string, len(t))
			for i, v := range t {
				args[i] = varName(v)
			}
			conj = append(conj, &Atom{Pred: sym.Name, Args: args})
		}
	}
	var f Formula = &And{Conjuncts: conj}
	// Close over the variables that actually occur.
	seen := make(map[string]bool)
	collectVars(f, seen)
	for i := a.Size() - 1; i >= 0; i-- {
		if seen[varName(i)] {
			f = &Exists{Var: varName(i), Body: f}
		}
	}
	return f
}
