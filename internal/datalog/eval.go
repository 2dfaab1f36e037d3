package datalog

import (
	"fmt"

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
func addNew(total, delta Relations, pred string, out *relation.Relation) {
	for _, t := range out.Tuples() {
		if !total[pred].Has(t) {
			total[pred].MustAdd(t)
			delta[pred].MustAdd(t)
		}
	}
}

// evalRule evaluates one rule given an extent chooser for each body subgoal
// (by index). It returns the head relation in positional attributes.
func evalRule(r Rule, extent func(a Atom, idx int) *relation.Relation) (*relation.Relation, error) {
	rels := make([]*relation.Relation, 0, len(r.Body))
	for i, a := range r.Body {
		base := extent(a, i)
		ar, err := atomToVars(a, base)
		if err != nil {
			return nil, err
		}
		rels = append(rels, ar)
	}
	joined := relation.JoinAll(rels)
	out := EDBRelation(len(r.Head.Args))
	if len(r.Head.Args) == 0 {
		if !joined.Empty() {
			out.MustAdd(relation.Tuple{})
		}
		return out, nil
	}
	pos := make([]int, len(r.Head.Args))
	for i, v := range r.Head.Args {
		pos[i] = joined.Pos(v)
		if pos[i] < 0 {
			return nil, fmt.Errorf("datalog: head variable %s missing from joined body of %s", v, r)
		}
	}
	out.Grow(joined.Len())
	row := make(relation.Tuple, len(pos)) // Add copies, so one scratch row suffices
	for _, t := range joined.Tuples() {
		for i, j := range pos {
			row[i] = t[j]
		}
		out.MustAdd(row)
	}
	return out, nil
}

// atomToVars re-labels a positional relation by the atom's variable names,
// applying equality selections for repeated variables and collapsing to one
// column per distinct variable.
func atomToVars(a Atom, base *relation.Relation) (*relation.Relation, error) {
	if base.Arity() != len(a.Args) {
		return nil, fmt.Errorf("datalog: atom %s applied to relation of arity %d", a, base.Arity())
	}
	var attrs []string
	firstPos := make(map[string]int)
	for i, v := range a.Args {
		if _, seen := firstPos[v]; !seen {
			firstPos[v] = i
			attrs = append(attrs, v)
		}
	}
	out := relation.MustNew(attrs...)
	out.Grow(base.Len())
	t := make(relation.Tuple, len(attrs))
rows:
	for _, row := range base.Tuples() {
		for i, v := range a.Args {
			if row[i] != row[firstPos[v]] {
				continue rows
			}
		}
		for j, v := range attrs {
			t[j] = row[firstPos[v]]
		}
		out.MustAdd(t)
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
