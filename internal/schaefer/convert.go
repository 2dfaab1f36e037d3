package schaefer

import (
	"fmt"

	"csdb/internal/csp"
)

// FromCSP converts a 2-valued CSP instance to a Schaefer template instance,
// deduplicating constraint tables into template relations. Per-variable
// domain restrictions become unary relations of the template, so a
// restricted domain participates in the template's classification exactly
// like any other constraint (a {1}-restriction, say, breaks 0-validity).
func FromCSP(inst *csp.Instance) (*Instance, error) {
	if inst.Dom != 2 {
		return nil, fmt.Errorf("schaefer: FromCSP needs a Boolean domain, got %d values", inst.Dom)
	}
	q := inst.Normalize()
	tpl := &Template{}
	out := &Instance{Template: tpl, NumVars: q.Vars}
	// Fold per-variable domain restrictions into unary constraints.
	if q.Domains != nil {
		for v, dom := range q.Domains {
			if dom == nil {
				continue
			}
			rel, err := NewBoolRel(1)
			if err != nil {
				return nil, err
			}
			for _, val := range dom {
				if err := rel.Add([]int{val}); err != nil {
					return nil, err
				}
			}
			idx := len(tpl.Rels)
			tpl.Rels = append(tpl.Rels, rel)
			out.Cons = append(out.Cons, Application{Rel: idx, Scope: []int{v}})
		}
	}
	// The constraint tables' relations follow the restrictions', one per
	// distinct table, in order of first appearance.
	var ids csp.TableIDs
	first := len(tpl.Rels)
	for _, con := range q.Constraints {
		id, added := ids.ID(con.Table)
		if added {
			rel, err := NewBoolRel(con.Table.Arity())
			if err != nil {
				return nil, err
			}
			for t := 0; t < con.Table.Len(); t++ {
				if err := rel.Add(con.Table.Row(t)); err != nil {
					return nil, err
				}
			}
			tpl.Rels = append(tpl.Rels, rel)
		}
		out.Cons = append(out.Cons, Application{Rel: first + id, Scope: con.Scope})
	}
	return out, nil
}

// ToCSP converts the instance to a general CSP instance, one table per
// relation, shared by its constraints.
func (p *Instance) ToCSP() (*csp.Instance, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := csp.NewInstance(p.NumVars, 2)
	tabs := make([]*csp.Table, len(p.Template.Rels))
	for _, con := range p.Cons {
		tab := tabs[con.Rel]
		if tab == nil {
			tab = p.Template.Rels[con.Rel].table()
			tabs[con.Rel] = tab
		}
		if err := out.AddConstraint(con.Scope, tab); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// table returns the relation's rows as a csp table, in ascending code
// order.
func (r *BoolRel) table() *csp.Table {
	tab := csp.NewTable(r.arity)
	row := make([]int, r.arity)
	for c := r.next(0); c >= 0; c = r.next(c + 1) {
		r.decode(c, row)
		tab.Add(row)
	}
	return tab
}
