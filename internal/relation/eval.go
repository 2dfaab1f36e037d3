package relation

import (
	"context"
	"fmt"
	"slices"
)

// Conjunctive evaluation: Proposition 2.1's join of a CSP's constraints,
// Proposition 2.2's evaluation of a query on a canonical database, a
// Datalog rule body and Proposition 6.1's ∃∧ formulas are all the
// projection of a natural join of atoms onto a head. Eval runs it as one
// pass of the join-tree engine over a one-node tree that holds every
// literal, keeping the head: the engine's local join orders the inputs and
// drops each variable as soon as no later input and no head needs it, so
// no join over every body variable is ever materialised and no second
// projection pass runs.

// Literal is one atom of a conjunctive body: a table whose column i holds
// the value of the variable Args[i]. Args may name a variable more than
// once; the atom then holds only the rows that agree on its positions.
type Literal struct {
	Args []string
	Rows *Table
}

// Bind returns the literal's distinct variables, in order of first
// occurrence, and the table over them. When no variable repeats, these are
// Args and Rows themselves, uncopied; otherwise the table is a new one of
// the rows whose repeated positions agree, one column per variable, and
// building it polls ctx. The error is ctx's, or reports a table whose
// arity differs from the number of arguments.
func (l Literal) Bind(ctx context.Context) ([]string, *Table, error) {
	return l.bind(NewPoller(ctx))
}

func (l Literal) bind(pl *Poller) ([]string, *Table, error) {
	if l.Rows.k != len(l.Args) {
		return nil, nil, fmt.Errorf("relation: a literal over %d arguments holds a table of arity %d", len(l.Args), l.Rows.k)
	}
	// Atoms are short, so a scan of the prefix finds a repeat.
	repeats := false
	for i, a := range l.Args {
		repeats = repeats || slices.Contains(l.Args[:i], a)
	}
	if !repeats {
		return l.Args, l.Rows, nil
	}
	// first[i] is the position of Args[i]'s first occurrence.
	first, vars := make([]int, len(l.Args)), []string(nil)
	for i, a := range l.Args {
		if first[i] = slices.Index(l.Args[:i], a); first[i] < 0 {
			first[i] = i
			vars = append(vars, a)
		}
	}
	// Rows that agree on the repeated positions are determined by their
	// first occurrences, so distinct rows stay distinct.
	out, row := NewTable(len(vars)), make([]int, 0, len(vars))
rows:
	for r := range l.Rows.n {
		if err := pl.Tick(); err != nil {
			return nil, nil, err
		}
		t := l.Rows.Row(r)
		row = row[:0]
		for i, f := range first {
			switch {
			case t[i] != t[f]:
				continue rows
			case f == i:
				row = append(row, t[i])
			}
		}
		out.AddDistinct(row)
	}
	return vars, out, nil
}

// Eval returns the projection onto head of the natural join of the
// literals: the relation over head, whose variables must be distinct, of
// the head values of every assignment that all the literals hold. With an
// empty head it holds the empty row iff the join is nonempty; with no
// literals the join is the 0-ary relation holding the empty row. The
// engine polls ctx as JoinTree.Join does. The error is ctx's, or reports a
// head variable in no literal, a repeated head variable or a table whose
// arity differs from its literal's arguments.
func Eval(ctx context.Context, body []Literal, head []string) (*Relation, error) {
	out, err := New(head...)
	if err != nil {
		return nil, err
	}
	pl, ids := NewPoller(ctx), make(map[string]int)
	var scopes []int
	atoms := make([]Atom, len(body))
	for i, l := range body {
		vars, rows, err := l.bind(pl)
		if err != nil {
			return nil, err
		}
		start := len(scopes)
		for _, v := range vars {
			id, ok := ids[v]
			if !ok {
				id = len(ids)
				ids[v] = id
			}
			scopes = append(scopes, id)
		}
		atoms[i] = Atom{Scope: scopes[start:len(scopes):len(scopes)], Rows: rows}
	}
	keep := make([]int, len(head))
	for c, v := range head {
		id, ok := ids[v]
		if !ok {
			return nil, fmt.Errorf("relation: head variable %q is in no literal", v)
		}
		keep[c] = id
	}
	all := make([]int, len(ids))
	for v := range all {
		all[v] = v
	}
	// Dom 0: relation values are arbitrary ints, so every key is hashed.
	tree := JoinTree{Nodes: []Node{{Scope: all, Atoms: atoms}}, Parent: []int{-1}}
	t, err := tree.Join(ctx, keep)
	if err != nil {
		return nil, err
	}
	out.Table = *t
	return out, nil
}

// literal returns r as a literal over its attributes.
func (r *Relation) literal() Literal { return Literal{Args: r.attrs, Rows: &r.Table} }

// JoinAll returns the natural join of rels over their attributes in order
// of first occurrence. With no inputs it returns the relation over no
// attributes containing the empty tuple (the join identity).
func JoinAll(rels []*Relation) *Relation {
	j, err := JoinAllCtx(context.Background(), rels)
	if err != nil {
		// Unreachable: the background context is never cancelled.
		panic(err)
	}
	return j
}

// Join returns the natural join of r and s: the schema is r's attributes
// followed by the attributes of s that do not occur in r, and a result tuple
// exists for every pair of r/s tuples that agree on all shared attributes.
func (r *Relation) Join(s *Relation) *Relation { return JoinAll([]*Relation{r, s}) }

// JoinAllCtx is JoinAll under a context: the engine polls ctx every
// joinCheckEvery units of work (see Poller, which also yields the
// processor) and returns its error as soon as cancellation is observed.
func JoinAllCtx(ctx context.Context, rels []*Relation) (*Relation, error) {
	body := make([]Literal, len(rels))
	var attrs []string
	for i, r := range rels {
		body[i] = r.literal()
		for _, a := range r.attrs {
			if !slices.Contains(attrs, a) {
				attrs = append(attrs, a)
			}
		}
	}
	return Eval(ctx, body, attrs)
}

// Project returns the projection of r onto the given attributes, in the given
// order. Duplicate result tuples are eliminated.
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	return Eval(context.Background(), []Literal{r.literal()}, attrs)
}
