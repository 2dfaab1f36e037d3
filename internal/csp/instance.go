// Package csp implements constraint-satisfaction problem instances in the
// classic AI formulation of Section 2 of the paper — a set of variables, a
// set of values, and a collection of constraints (t, R) — together with:
//
//   - the normalizations the paper performs "without loss of generality"
//     (eliminating repeated variables in constraint scopes, consolidating
//     constraints on the same scope, coherence closure);
//   - the translation between CSP instances and homomorphism instances
//     (A_P, B_P) of relational structures, in both directions;
//   - complete solvers: chronological backtracking (BT), forward checking
//     (FC), and maintaining generalized arc consistency (MAC), with
//     MRV+degree variable ordering and search statistics;
//   - the join-evaluation solver of Proposition 2.1.
//
// A constraint's table is relation.Table, the library's one tuple store
// (structure.Interp is the same type): rows in insertion order in one flat
// arena, indexed as they are added. Once added to an instance a table never
// changes, so derived instances share tables instead of copying them, and
// every reader (the portfolio's lanes run at once) may use them without
// locks.
package csp

import (
	"fmt"
	"slices"

	"csdb/internal/relation"
)

// Table is a finite relation over values: the R of a constraint (t, R). It
// is relation.Table, the library's one tuple store, so a constraint's table
// is literally a relation (Proposition 2.1): rows in insertion order in one
// flat arena, deduplicated on Add, with an allocation-free hash index that
// Add keeps built, so any number of solvers may read one table at once.
type Table = relation.Table

// NewTable creates an empty table of the given arity (>= 1).
func NewTable(arity int) *Table {
	if arity < 1 {
		panic(fmt.Sprintf("csp: table arity %d", arity))
	}
	return relation.NewTable(arity)
}

// TableOf builds a table from rows; all rows must share the given arity.
func TableOf(arity int, rows ...[]int) *Table {
	t := NewTable(arity)
	t.Grow(len(rows))
	for _, r := range rows {
		t.Add(r)
	}
	return t
}

// Constraint is a pair (t, R): an ordered scope of variable indices and a
// table of allowed value tuples of the same arity.
type Constraint struct {
	Scope []int
	Table *Table
}

// Instance is a CSP instance (V, D, C) with V = {0..Vars-1} and
// D = {0..Dom-1}. Optional per-variable domain restrictions live in Domains
// (nil means every variable ranges over all of D).
type Instance struct {
	Vars        int
	Dom         int
	Names       []string // optional variable labels
	Domains     [][]int  // optional: Domains[v] lists the allowed values of v
	Constraints []*Constraint
}

// NewInstance returns an instance with the given numbers of variables and
// values and no constraints.
func NewInstance(vars, dom int) *Instance {
	return &Instance{Vars: vars, Dom: dom}
}

// AddConstraint appends the constraint (scope, table) after validating it.
// The instance keeps table itself, not a copy: once added, a table must not
// gain rows. Every caller fills its table first, and the library relies on
// this contract to share one table among constraints, derived instances
// (NormalizeDistinct, Consolidate, ToStructures) and concurrent solvers.
func (p *Instance) AddConstraint(scope []int, table *Table) error {
	if len(scope) != table.Arity() {
		return fmt.Errorf("csp: scope length %d does not match table arity %d", len(scope), table.Arity())
	}
	for _, v := range scope {
		if v < 0 || v >= p.Vars {
			return fmt.Errorf("csp: scope variable %d outside [0,%d)", v, p.Vars)
		}
	}
	for i := 0; i < table.Len(); i++ {
		for _, val := range table.Row(i) {
			if val < 0 || val >= p.Dom {
				return fmt.Errorf("csp: table value %d outside [0,%d)", val, p.Dom)
			}
		}
	}
	sc := make([]int, len(scope))
	copy(sc, scope)
	p.Constraints = append(p.Constraints, &Constraint{Scope: sc, Table: table})
	return nil
}

// MustAddConstraint is AddConstraint but panics on error.
func (p *Instance) MustAddConstraint(scope []int, table *Table) {
	if err := p.AddConstraint(scope, table); err != nil {
		panic(err)
	}
}

// VarName returns the label of variable v.
func (p *Instance) VarName(v int) string {
	if p.Names != nil && v >= 0 && v < len(p.Names) {
		return p.Names[v]
	}
	return fmt.Sprintf("x%d", v)
}

// DomainOf returns the allowed values of variable v as a slice.
func (p *Instance) DomainOf(v int) []int {
	if p.Domains != nil && p.Domains[v] != nil {
		return p.Domains[v]
	}
	all := make([]int, p.Dom)
	for i := range all {
		all[i] = i
	}
	return all
}

// Clone returns a deep copy of the instance (tables are copied).
func (p *Instance) Clone() *Instance {
	c := &Instance{Vars: p.Vars, Dom: p.Dom}
	if p.Names != nil {
		c.Names = append([]string(nil), p.Names...)
	}
	if p.Domains != nil {
		c.Domains = make([][]int, len(p.Domains))
		for i, d := range p.Domains {
			if d != nil {
				c.Domains[i] = append([]int(nil), d...)
			}
		}
	}
	for _, con := range p.Constraints {
		c.MustAddConstraint(con.Scope, con.Table.Clone())
	}
	return c
}

// Satisfies reports whether the total assignment (len == Vars) satisfies all
// constraints and per-variable domains.
func (p *Instance) Satisfies(assignment []int) bool {
	if len(assignment) != p.Vars {
		return false
	}
	for v, val := range assignment {
		if val < 0 || val >= p.Dom {
			return false
		}
		if p.Domains != nil && p.Domains[v] != nil && !containsInt(p.Domains[v], val) {
			return false
		}
	}
	row := make([]int, 8)
	for _, con := range p.Constraints {
		if cap(row) < len(con.Scope) {
			row = make([]int, len(con.Scope))
		}
		r := row[:len(con.Scope)]
		for i, v := range con.Scope {
			r[i] = assignment[v]
		}
		if !con.Table.Has(r) {
			return false
		}
	}
	return true
}

// NormalizeDistinct rewrites every constraint whose scope repeats a variable
// into an equivalent constraint with distinct scope variables, per the
// standard reduction in Section 2: tuples disagreeing on the repeated
// positions are deleted and the duplicate column is projected out. The
// result is a new instance with the same solution set. A constraint whose
// scope repeats no variable is shared with p, not copied or re-validated,
// so an instance that needs no rewrite costs one slice.
func (p *Instance) NormalizeDistinct() *Instance {
	out := &Instance{Vars: p.Vars, Dom: p.Dom, Names: p.Names, Domains: p.Domains,
		Constraints: make([]*Constraint, len(p.Constraints))}
	for i, con := range p.Constraints {
		if scope, table := dedupScope(con.Scope, con.Table); len(scope) < len(con.Scope) {
			con = &Constraint{Scope: scope, Table: table}
		}
		out.Constraints[i] = con
	}
	return out
}

// dedupScope returns the scope without its repeated variables and the table
// of the rows that agree on every repetition, projected onto that scope; a
// scope that repeats no variable comes back as it is, with its table.
func dedupScope(scope []int, table *Table) ([]int, *Table) {
	repeats := false
	for i, v := range scope {
		if slices.Contains(scope[:i], v) {
			repeats = true
			break
		}
	}
	if !repeats {
		return scope, table // share the table
	}
	first := make([]int, len(scope)) // per position, its variable's first one
	var keep, newScope []int
	for i, v := range scope {
		if first[i] = slices.Index(scope, v); first[i] == i {
			keep = append(keep, i)
			newScope = append(newScope, v)
		}
	}
	out := NewTable(len(keep))
	proj := make([]int, len(keep))
rows:
	for t := 0; t < table.Len(); t++ {
		row := table.Row(t)
		for i, f := range first {
			if row[i] != row[f] {
				continue rows // disagrees on a repeated variable
			}
		}
		for j, i := range keep {
			proj[j] = row[i]
		}
		out.Add(proj)
	}
	return newScope, out
}

// Consolidate merges constraints that share the same ordered scope by
// intersecting their tables, so every scope occurs at most once (the "single
// constraint per tuple of variables" convention of Section 2). A scope held
// by one constraint keeps that constraint, shared with p as NormalizeDistinct
// shares it; the intersection of valid tables is valid, so nothing is
// re-validated.
func (p *Instance) Consolidate() *Instance {
	out := &Instance{Vars: p.Vars, Dom: p.Dom, Names: p.Names, Domains: p.Domains,
		Constraints: make([]*Constraint, 0, len(p.Constraints))}
	scopes := digestIDs[[]int]{first: make(map[uint64]int, len(p.Constraints))}
	for _, con := range p.Constraints {
		id, added := scopes.id(relation.Tuple(con.Scope).Hash(), con.Scope, slices.Equal[[]int])
		if added {
			out.Constraints = append(out.Constraints, con)
			continue
		}
		merged, err := out.Constraints[id].Table.Intersect(con.Table)
		if err != nil {
			panic(err) // impossible: same scope implies same arity
		}
		out.Constraints[id] = &Constraint{Scope: con.Scope, Table: merged}
	}
	return out
}

// TableIDs numbers tables by content: equal tables (Table.Equal) share an
// id, and ids count up from 0 in order of first appearance.
type TableIDs struct{ ids digestIDs[*Table] }

// ID returns t's id and whether t is the first table with its content. A
// table is found by its Digest and confirmed with Equal, so a digest
// collision never merges two tables.
func (s *TableIDs) ID(t *Table) (int, bool) {
	return s.ids.id(t.Digest(), t, (*Table).Equal)
}

// digestIDs numbers values by content, in order of first appearance: a
// value is found by its 64-bit digest and confirmed with an equality test.
// first holds the latest id of each digest, and next chains each id to the
// previous one with the same digest, -1 at the first.
type digestIDs[T any] struct {
	first map[uint64]int
	next  []int
	vals  []T
}

// id returns v's id, adding v when no value equal to it (by equal) has one,
// and reports whether it was added. d must be v's digest.
func (s *digestIDs[T]) id(d uint64, v T, equal func(a, b T) bool) (int, bool) {
	head, ok := s.first[d]
	if !ok {
		head = -1
	}
	for id := head; id >= 0; id = s.next[id] {
		if equal(s.vals[id], v) {
			return id, false
		}
	}
	if s.first == nil {
		s.first = make(map[uint64]int)
	}
	s.first[d] = len(s.vals)
	s.next = append(s.next, head)
	s.vals = append(s.vals, v)
	return len(s.vals) - 1, true
}

// Normalize applies NormalizeDistinct then Consolidate.
func (p *Instance) Normalize() *Instance {
	return p.NormalizeDistinct().Consolidate()
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
