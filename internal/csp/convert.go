package csp

import (
	"fmt"

	"csdb/internal/structure"
)

// This file implements the two translations of Section 2:
//
//   CSP instance P  -->  homomorphism instance (A_P, B_P)
//   pair (A, B)     -->  CSP instance CSP(A, B)
//
// and a convenience homomorphism finder built on the CSP solver.

// FromStructures builds the CSP instance CSP(A, B) of a homomorphism
// instance: variables are A's elements, values are B's elements, and each
// tuple t in a relation R^A yields the constraint (t, R^B). The constraints
// share B's interpretations (a structure's relations are csp tables), so b
// must not gain tuples while the instance is in use.
func FromStructures(a, b *structure.Structure) (*Instance, error) {
	if !a.Voc().Equal(b.Voc()) {
		return nil, fmt.Errorf("csp: structures have different vocabularies")
	}
	p := NewInstance(a.Size(), b.Size())
	for _, sym := range a.Voc().Symbols() {
		ain, table := a.Rel(sym.Name), b.Rel(sym.Name)
		for i := 0; i < ain.Len(); i++ {
			if err := p.AddConstraint(ain.Row(i), table); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// MustFromStructures is FromStructures but panics on error.
func MustFromStructures(a, b *structure.Structure) *Instance {
	p, err := FromStructures(a, b)
	if err != nil {
		panic(err)
	}
	return p
}

// ToStructures builds the homomorphism instance (A_P, B_P) of a CSP
// instance: the domain of A_P is the variable set, the domain of B_P is the
// value set, B_P interprets the distinct constraint tables, and A_P holds a
// tuple per constraint scope under the symbol of its table.
//
// Scopes with repeated variables are eliminated first (NormalizeDistinct),
// matching the paper's "without loss of generality" step. Per-variable
// domain restrictions, if any, become unary constraints before translation.
func ToStructures(p *Instance) (*structure.Structure, *structure.Structure, error) {
	q := p.withDomainsAsConstraints().NormalizeDistinct()

	// Deduplicate tables by content; name them R0, R1, ...
	voc := structure.MustVocabulary()
	var ids TableIDs
	var tables []*Table // of each table id
	var names []string
	nameOf := make([]string, len(q.Constraints)) // of each constraint's table
	for i, con := range q.Constraints {
		id, added := ids.ID(con.Table)
		if added {
			tables = append(tables, con.Table)
			names = append(names, fmt.Sprintf("R%d", id))
			if err := voc.Add(structure.Symbol{Name: names[id], Arity: con.Table.Arity()}); err != nil {
				return nil, nil, err
			}
		}
		nameOf[i] = names[id]
	}

	a, err := structure.New(voc, q.Vars)
	if err != nil {
		return nil, nil, err
	}
	b, err := structure.New(voc, q.Dom)
	if err != nil {
		return nil, nil, err
	}
	for id, table := range tables {
		for i := 0; i < table.Len(); i++ {
			if err := b.AddTuple(names[id], table.Row(i)...); err != nil {
				return nil, nil, err
			}
		}
	}
	for i, con := range q.Constraints {
		if err := a.AddTuple(nameOf[i], con.Scope...); err != nil {
			return nil, nil, err
		}
	}
	return a, b, nil
}

// withDomainsAsConstraints folds per-variable domain restrictions into unary
// constraints so downstream translations see a pure (V, D, C) instance.
func (p *Instance) withDomainsAsConstraints() *Instance {
	if p.Domains == nil {
		return p
	}
	out := &Instance{Vars: p.Vars, Dom: p.Dom, Names: p.Names}
	for v, dom := range p.Domains {
		if dom == nil {
			continue
		}
		t := NewTable(1)
		for _, val := range dom {
			t.Add([]int{val})
		}
		out.MustAddConstraint([]int{v}, t)
	}
	for _, con := range p.Constraints {
		out.MustAddConstraint(con.Scope, con.Table)
	}
	return out
}

// FindHomomorphism searches for a homomorphism from a to b using the MAC
// solver on CSP(A, B). It returns the mapping and true, or nil and false.
func FindHomomorphism(a, b *structure.Structure) ([]int, bool) {
	p, err := FromStructures(a, b)
	if err != nil {
		return nil, false
	}
	res := Solve(p, Options{})
	if !res.Found {
		return nil, false
	}
	return res.Solution, true
}

// HomomorphismExists reports whether a homomorphism a -> b exists.
func HomomorphismExists(a, b *structure.Structure) bool {
	_, ok := FindHomomorphism(a, b)
	return ok
}
