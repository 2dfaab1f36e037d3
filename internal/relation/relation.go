// Package relation implements attribute-named finite relations and the
// relational-algebra operators needed by the rest of the library: natural
// join and projection, both one conjunctive evaluation (Eval, eval.go),
// the projection onto a head of the join of atoms over tables. Joins,
// semijoins and projections run in one place, the join-tree engine
// (jointree.go).
//
// It is the substrate for Proposition 2.1 of the paper (a CSP instance is
// solvable iff the natural join of its constraint relations is nonempty) and
// for the Yannakakis acyclic-join algorithm in package hypergraph.
//
// Values are small non-negative integers; attributes are strings. Relations
// are set-semantics: duplicate tuples are eliminated on construction and by
// every operator.
//
// # Kernel layout
//
// There is one tuple store in the library, Table (table.go): rows of a
// fixed arity in insertion order in a single flat row-major []int array,
// with an open-addressed membership index: a slot array of row ids, probed
// linearly from the row's hash, keyed per process in every word, so
// lookups allocate nothing and hash collisions are resolved by comparing
// the stored values. The hash join's build side (join.go), which every
// join, semijoin and projection of the join-tree engine (jointree.go) runs,
// uses the same slots and the same keyed hash, or a key's value when
// the key space is small; no Go map indexes tuples outside the reference
// kernel (naive.go). csp.Table and structure.Interp
// are that type, and a Relation is a Table plus its attribute names. A Tuple
// handed out by Tuples, Rows or SortedTuples is a view into (a copy of) the
// array, as is Table.Row.
//
// Table.Add builds the index as it inserts, so a table filled through Add
// never writes on a read: a finished constraint table or structure may be
// read by any number of goroutines. Operator results, which are
// duplicate-free by construction, are emitted without touching the index
// at all; a Relation materializes its index lazily on the first membership
// query, and caches its Tuples view. So a Relation may be read
// concurrently only after one Has/Add/Equal call (or any mutation) from a
// single goroutine. The differential reference
// implementation for this kernel is in naive.go.
package relation

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Tuple is a single row of a relation. Its length always equals the arity of
// the relation that owns it.
type Tuple []int

// Key returns a canonical string encoding of the tuple, usable as a map key.
// The kernel itself no longer uses string keys (see the package comment);
// this survives for rendering and for callers that need a portable encoding.
func (t Tuple) Key() string {
	b := make([]byte, 0, len(t)*3)
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// Hash returns a 64-bit hash of the tuple: the per-process keyed hash that
// places rows in a Table's index. Equal tuples hash alike,
// and unequal ones may collide, so a match is confirmed with Equal. The
// seed is drawn per process, so it is an in-process key, not a stable
// serialization.
func (t Tuple) Hash() uint64 { return hashVals(t) }

// Equal reports whether two tuples have the same length and components.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Relation is a finite relation over a named list of attributes.
// The attribute order is significant for tuple layout but natural join and
// set operations are attribute-name driven.
type Relation struct {
	Table                // the rows; the index is built lazily (see package comment)
	attrs []string       // attribute names in column order
	pos   map[string]int // attribute name -> column index
	rows  []Tuple        // cached row views; rebuilt when len(rows) != n
}

// New creates a relation with the given attributes and no tuples.
// Attribute names must be distinct and nonempty.
func New(attrs ...string) (*Relation, error) {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: empty attribute name at position %d", i)
		}
		if _, dup := pos[a]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", a)
		}
		pos[a] = i
	}
	return &Relation{
		Table: Table{k: len(attrs)},
		attrs: append([]string(nil), attrs...),
		pos:   pos,
	}, nil
}

// MustNew is New but panics on error. Intended for statically known schemas.
func MustNew(attrs ...string) *Relation {
	r, err := New(attrs...)
	if err != nil {
		panic(err)
	}
	return r
}

// FromTuples creates a relation with the given attributes and rows.
func FromTuples(attrs []string, rows []Tuple) (*Relation, error) {
	r, err := New(attrs...)
	if err != nil {
		return nil, err
	}
	r.Grow(len(rows))
	for _, t := range rows {
		if err := r.Add(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// FromTable returns a relation with the given attributes over t's rows. The
// relation takes t over: t must not be used afterwards.
func FromTable(attrs []string, t *Table) (*Relation, error) {
	r, err := New(attrs...)
	if err != nil {
		return nil, err
	}
	if t.k != r.k {
		return nil, fmt.Errorf("relation: table arity %d for %d attributes", t.k, r.k)
	}
	r.Table = *t
	return r, nil
}

// MustFromTuples is FromTuples but panics on error.
func MustFromTuples(attrs []string, rows []Tuple) *Relation {
	r, err := FromTuples(attrs, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// Attrs returns the relation's attribute names in column order.
// The returned slice must not be modified.
func (r *Relation) Attrs() []string { return r.attrs }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.n == 0 }

// Tuples returns the relation's rows as views into the relation's storage.
// The returned slice and its tuples must not be modified: writing through a
// returned tuple corrupts the relation (its rows share one value array and
// the membership index locates them by their hashes). Use Rows for a
// defensive copy.
func (r *Relation) Tuples() []Tuple {
	if len(r.rows) != r.n {
		rows := make([]Tuple, r.n)
		for i := range rows {
			rows[i] = Tuple(r.Row(i))
		}
		r.rows = rows
	}
	return r.rows
}

// Rows returns a deep copy of the relation's rows: both the slice and every
// tuple are freshly allocated, so callers may reorder and mutate them freely
// without corrupting the relation. External packages that hand tuples to
// user code should prefer Rows over Tuples.
func (r *Relation) Rows() []Tuple {
	flat := make([]int, r.n*r.k)
	copy(flat, r.data[:r.n*r.k])
	rows := make([]Tuple, r.n)
	for i := range rows {
		off := i * r.k
		rows[i] = Tuple(flat[off : off+r.k : off+r.k])
	}
	return rows
}

// HasAttr reports whether the relation has an attribute with the given name.
func (r *Relation) HasAttr(name string) bool {
	_, ok := r.pos[name]
	return ok
}

// Pos returns the column index of the named attribute, or -1 if absent.
func (r *Relation) Pos(name string) int {
	if i, ok := r.pos[name]; ok {
		return i
	}
	return -1
}

// Add inserts a tuple. Duplicates are silently ignored.
func (r *Relation) Add(t Tuple) error {
	if len(t) != r.k {
		return fmt.Errorf("relation: tuple arity %d does not match schema arity %d", len(t), r.k)
	}
	r.Table.Add(t)
	return nil
}

// MustAdd is Add but panics on error.
func (r *Relation) MustAdd(t Tuple) {
	if err := r.Add(t); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := MustNew(r.attrs...)
	c.data = slices.Clone(r.data[:r.n*r.k])
	c.n = r.n
	return c
}

// String renders the relation as attrs followed by its tuples, for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(strings.Join(r.attrs, ","))
	b.WriteString("){")
	for i := 0; i < r.n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('[')
		b.WriteString(Tuple(r.Row(i)).Key())
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}

// Equal reports whether r and s have the same attribute set and the same
// tuples (order-insensitive, after aligning attribute order).
func (r *Relation) Equal(s *Relation) bool {
	perm, err := alignSchemas(r, s)
	if err != nil {
		return false
	}
	if r.n != s.n {
		return false
	}
	if r.n == 0 {
		return true
	}
	r.ensureIndex()
	scratch := make([]int, r.k)
	for i := 0; i < s.n; i++ {
		base := i * s.k
		for c, j := range perm {
			scratch[c] = s.data[base+j]
		}
		if r.lookup(scratch, hashVals(scratch)) < 0 {
			return false
		}
	}
	return true
}

// SortedTuples returns the tuples in lexicographic order (a fresh slice of
// views; do not modify the tuples).
func (r *Relation) SortedTuples() []Tuple {
	out := make([]Tuple, r.n)
	for i := range out {
		out[i] = Tuple(r.Row(i))
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// alignSchemas checks the attribute sets are equal and returns perm, where
// perm[i] is the column of s holding r's attribute i: the row t of s reads
// t[perm[0]], t[perm[1]], ... in r's column order.
func alignSchemas(r, s *Relation) ([]int, error) {
	if len(r.attrs) != len(s.attrs) {
		return nil, fmt.Errorf("relation: schema mismatch %v vs %v", r.attrs, s.attrs)
	}
	perm := make([]int, len(r.attrs))
	for i, a := range r.attrs {
		j, ok := s.pos[a]
		if !ok {
			return nil, fmt.Errorf("relation: schema mismatch, %q missing from %v", a, s.attrs)
		}
		perm[i] = j
	}
	return perm, nil
}
