package datalog

import (
	"context"
	"fmt"
	"slices"

	"csdb/internal/relation"
)

// Relations map predicate names to relations. By convention a predicate of
// arity k is stored over the positional attributes c0..c(k-1); EDB inputs of
// the right arity are re-labeled automatically.
type Relations map[string]*relation.Relation

// colAttr names the i-th positional column.
func colAttr(i int) string { return fmt.Sprintf("c%d", i) }

// EDBRelation builds an EDB relation of the given arity from rows.
func EDBRelation(arity int, rows ...[]int) *relation.Relation {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = colAttr(i)
	}
	r := relation.MustNew(attrs...)
	r.Grow(len(rows))
	for _, row := range rows {
		r.MustAdd(relation.Tuple(row))
	}
	return r
}

// Eval computes the least fixpoint of the program's IDB predicates over the
// given EDB relations using semi-naive evaluation: each iteration joins, for
// every rule and every IDB subgoal position, the latest delta of that
// predicate with the full current extent of the others, and keeps only the
// genuinely new head tuples as the next delta.
func Eval(p *Program, edb Relations) (Relations, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	arity, err := p.Arities()
	if err != nil {
		return nil, err
	}
	idbSet := make(map[string]bool)
	for _, n := range p.IDBs() {
		idbSet[n] = true
	}

	// Normalize EDB relations to positional attributes; missing EDBs are
	// empty.
	ext := make(Relations)
	for _, name := range p.EDBs() {
		want := arity[name]
		in, ok := edb[name]
		if !ok {
			ext[name] = EDBRelation(want)
			continue
		}
		if in.Arity() != want {
			return nil, fmt.Errorf("datalog: EDB %s has arity %d, program uses %d", name, in.Arity(), want)
		}
		norm := EDBRelation(want)
		norm.Grow(in.Len())
		for _, t := range in.Tuples() {
			norm.MustAdd(t)
		}
		ext[name] = norm
	}

	total := make(Relations)
	delta := make(Relations)
	for _, name := range p.IDBs() {
		total[name] = EDBRelation(arity[name])
		delta[name] = EDBRelation(arity[name])
	}

	// lookup returns the current extent of a predicate, with an override for
	// one subgoal position (the delta'd one).
	lookup := func(a Atom, override *relation.Relation, overrideIdx, idx int) *relation.Relation {
		if overrideIdx == idx {
			return override
		}
		if idbSet[a.Pred] {
			return total[a.Pred]
		}
		return ext[a.Pred]
	}

	// Initial round: rules evaluated over EDBs and (empty) IDBs; equivalent
	// to naive first iteration.
	for _, r := range p.Rules {
		out, err := evalRule(r, func(a Atom, idx int) *relation.Relation {
			return lookup(a, nil, -1, idx)
		})
		if err != nil {
			return nil, err
		}
		addNew(total, delta, r.Head.Pred, out)
	}

	for {
		anyNew := false
		newDelta := make(Relations)
		for _, name := range p.IDBs() {
			newDelta[name] = EDBRelation(arity[name])
		}
		for _, r := range p.Rules {
			for di, a := range r.Body {
				if !idbSet[a.Pred] {
					continue
				}
				d := delta[a.Pred]
				if d.Empty() {
					continue
				}
				out, err := evalRule(r, func(b Atom, idx int) *relation.Relation {
					return lookup(b, d, di, idx)
				})
				if err != nil {
					return nil, err
				}
				for _, t := range out.Tuples() {
					if !total[r.Head.Pred].Has(t) && !newDelta[r.Head.Pred].Has(t) {
						newDelta[r.Head.Pred].MustAdd(t)
						anyNew = true
					}
				}
			}
		}
		if !anyNew {
			break
		}
		for name, d := range newDelta {
			for _, t := range d.Tuples() {
				total[name].MustAdd(t)
			}
		}
		delta = newDelta
	}
	return total, nil
}

// addNew merges out into total[pred] and delta[pred], keeping only new rows.
func addNew(total, delta Relations, pred string, out *relation.Table) {
	for _, t := range out.Tuples() {
		if !total[pred].Has(t) {
			total[pred].MustAdd(t)
			delta[pred].MustAdd(t)
		}
	}
}

// evalRule evaluates one rule given an extent chooser for each body subgoal
// (by index): the body's join projected inside the pass onto the head's
// distinct variables. It returns the head rows, positional in the head's
// arguments.
func evalRule(r Rule, extent func(a Atom, idx int) *relation.Relation) (*relation.Table, error) {
	body := make([]relation.Literal, len(r.Body))
	for i, a := range r.Body {
		body[i] = relation.Literal{Args: a.Args, Rows: &extent(a, i).Table}
	}
	var head []string
	for _, v := range r.Head.Args {
		if !slices.Contains(head, v) {
			head = append(head, v)
		}
	}
	res, err := relation.Eval(context.Background(), body, head)
	if err != nil {
		return nil, fmt.Errorf("datalog: rule %s: %w", r, err)
	}
	if len(head) == len(r.Head.Args) {
		return &res.Table, nil
	}
	// A head that repeats a variable repeats its column.
	pos := make([]int, len(r.Head.Args))
	for i, v := range r.Head.Args {
		pos[i] = slices.Index(head, v)
	}
	out := relation.NewTable(len(pos))
	out.Grow(res.Len())
	row := make([]int, len(pos))
	for t := range res.Len() {
		src := res.Row(t)
		for i, j := range pos {
			row[i] = src[j]
		}
		out.AddDistinct(row)
	}
	return out, nil
}

// GoalTrue evaluates the program and reports whether the 0-ary goal
// predicate is derived (true).
func GoalTrue(p *Program, edb Relations) (bool, error) {
	res, err := Eval(p, edb)
	if err != nil {
		return false, err
	}
	g, ok := res[p.Goal]
	if !ok {
		return false, fmt.Errorf("datalog: goal %s not evaluated", p.Goal)
	}
	return !g.Empty(), nil
}
