// Package relation implements attribute-named finite relations and the
// relational-algebra operators needed by the rest of the library: natural
// join, projection, selection, semijoin, rename, union and intersection.
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
// Tuples are stored in a single flat row-major []int value array; a Tuple
// handed out by Tuples, Rows or SortedTuples is a view into (a copy of) that
// array. Membership is an integer-hash index: a map from the FNV-1a hash of
// a row to the most recently inserted row with that hash, chained through a
// per-row next array, so lookups allocate nothing and hash collisions are
// resolved by comparing the stored values. Operator results that are
// provably duplicate-free (join, semijoin, selection, intersection of
// set-semantic inputs) are emitted without touching the index at all; the
// index is materialized lazily on the first membership query.
//
// A relation may be read concurrently, but the lazy index build means the
// first Contains/Add/Equal/Intersect call on an operator result mutates the
// receiver: perform one such call (or any mutation) from a single goroutine
// before sharing. The differential reference implementation for this kernel
// is in naive.go.
package relation

import (
	"fmt"
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

// FNV-1a over machine words. Distribution across map buckets is handled by
// the runtime's own hashing of the uint64 key, and equality of colliding
// rows is always verified against the stored values, so word-wise (rather
// than byte-wise) folding is safe.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashVals hashes a full row.
func hashVals(vals []int) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	return h
}

// hashRowCols hashes the projection of the row starting at base in data onto
// the given column offsets.
func hashRowCols(data []int, base int, cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h ^= uint64(data[base+c])
		h *= fnvPrime64
	}
	return h
}

// Relation is a finite relation over a named list of attributes.
// The attribute order is significant for tuple layout but natural join and
// set operations are attribute-name driven.
type Relation struct {
	attrs []string
	pos   map[string]int // attribute name -> column index
	k     int            // arity
	n     int            // row count
	data  []int          // flat row-major values, len == n*k
	rows  []Tuple        // cached row views; rebuilt when len(rows) != n

	// Membership index, built lazily: index maps a row hash to the most
	// recently inserted row id with that hash; next chains to the previous
	// one (-1 terminates). No per-row allocations, collisions verified.
	index map[uint64]int32
	next  []int32

	stats []int // cached per-column distinct counts; nil when stale
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
		attrs: append([]string(nil), attrs...),
		pos:   pos,
		k:     len(attrs),
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

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return r.k }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.n == 0 }

// row returns a view of row i into the flat value array.
func (r *Relation) row(i int) Tuple {
	off := i * r.k
	return Tuple(r.data[off : off+r.k : off+r.k])
}

// Tuples returns the relation's rows as views into the relation's storage.
// The returned slice and its tuples must not be modified: writing through a
// returned tuple corrupts the relation (its rows share one value array and
// the membership index caches their hashes). Use Rows for a defensive copy.
func (r *Relation) Tuples() []Tuple {
	if len(r.rows) != r.n {
		rows := make([]Tuple, r.n)
		for i := range rows {
			rows[i] = r.row(i)
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

// Grow reserves capacity for n additional rows, sizing both the value array
// and (if already built) the membership index. It is a hint only.
func (r *Relation) Grow(n int) {
	if n <= 0 {
		return
	}
	need := (r.n + n) * r.k
	if cap(r.data) < need {
		grown := make([]int, len(r.data), need)
		copy(grown, r.data)
		r.data = grown
	}
	if r.next != nil && cap(r.next) < r.n+n {
		grownNext := make([]int32, len(r.next), r.n+n)
		copy(grownNext, r.next)
		r.next = grownNext
	}
}

// ensureIndex materializes the membership index. Mutates the receiver: see
// the package comment for the concurrency contract.
func (r *Relation) ensureIndex() {
	if r.index != nil {
		return
	}
	r.index = make(map[uint64]int32, r.n)
	r.next = make([]int32, 0, r.n)
	for i := 0; i < r.n; i++ {
		h := hashVals(r.row(i))
		prev, ok := r.index[h]
		if !ok {
			prev = -1
		}
		r.next = append(r.next, prev)
		r.index[h] = int32(i)
	}
}

// lookup returns the id of the row equal to vals, or -1. The index must be
// built.
func (r *Relation) lookup(vals []int, h uint64) int32 {
	id, ok := r.index[h]
	if !ok {
		return -1
	}
	for id >= 0 {
		base := int(id) * r.k
		eq := true
		for c, v := range vals {
			if r.data[base+c] != v {
				eq = false
				break
			}
		}
		if eq {
			return id
		}
		id = r.next[id]
	}
	return -1
}

// appendIndexed appends a row known to be absent and records it in the
// (built) index.
func (r *Relation) appendIndexed(vals []int, h uint64) {
	r.data = append(r.data, vals...)
	prev, ok := r.index[h]
	if !ok {
		prev = -1
	}
	r.next = append(r.next, prev)
	r.index[h] = int32(r.n)
	r.n++
	r.stats = nil
}

// appendUnique appends a row that the caller guarantees is distinct from all
// stored rows (set-semantics preserved by construction). Only legal while
// the index is unbuilt.
func (r *Relation) appendUnique(vals []int) {
	r.data = append(r.data, vals...)
	r.n++
}

// Add inserts a tuple. Duplicates are silently ignored.
func (r *Relation) Add(t Tuple) error {
	if len(t) != r.k {
		return fmt.Errorf("relation: tuple arity %d does not match schema arity %d", len(t), r.k)
	}
	r.ensureIndex()
	h := hashVals(t)
	if r.lookup(t, h) >= 0 {
		return nil
	}
	r.appendIndexed(t, h)
	return nil
}

// AddDistinct appends t, which the caller guarantees is not already in r,
// without the membership check (and lazily built index) that Add pays for:
// it is how a relation is filled in one pass from rows that are already a
// set, such as a deduplicated constraint table. It panics on an arity
// mismatch, which is a programming error.
func (r *Relation) AddDistinct(t Tuple) {
	if len(t) != r.k {
		panic(fmt.Sprintf("relation: tuple arity %d does not match schema arity %d", len(t), r.k))
	}
	if r.index != nil {
		r.appendIndexed(t, hashVals(t))
		return
	}
	r.appendUnique(t)
	r.stats = nil
}

// MustAdd is Add but panics on error.
func (r *Relation) MustAdd(t Tuple) {
	if err := r.Add(t); err != nil {
		panic(err)
	}
}

// Contains reports whether the tuple is a member of the relation.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.k || r.n == 0 {
		return false
	}
	r.ensureIndex()
	return r.lookup(t, hashVals(t)) >= 0
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := MustNew(r.attrs...)
	c.data = append([]int(nil), r.data[:r.n*r.k]...)
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
		b.WriteString(r.row(i).Key())
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}

// Project returns the projection of r onto the given attributes, in the given
// order. Duplicate result tuples are eliminated.
func (r *Relation) Project(attrs ...string) (*Relation, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		j, ok := r.pos[a]
		if !ok {
			return nil, fmt.Errorf("relation: project on unknown attribute %q", a)
		}
		cols[i] = j
	}
	out, err := New(attrs...)
	if err != nil {
		return nil, err
	}
	out.index = make(map[uint64]int32, r.n)
	out.next = make([]int32, 0, r.n)
	scratch := make([]int, len(cols))
	for i := 0; i < r.n; i++ {
		base := i * r.k
		for c, j := range cols {
			scratch[c] = r.data[base+j]
		}
		h := hashVals(scratch)
		if out.lookup(scratch, h) < 0 {
			out.appendIndexed(scratch, h)
		}
	}
	return out, nil
}

// Select returns the tuples of r for which pred returns true.
func (r *Relation) Select(pred func(Tuple) bool) *Relation {
	out := MustNew(r.attrs...)
	for i := 0; i < r.n; i++ {
		if t := r.row(i); pred(t) {
			out.appendUnique(t)
		}
	}
	return out
}

// SelectEq returns the tuples whose named attribute equals v.
func (r *Relation) SelectEq(attr string, v int) (*Relation, error) {
	j, ok := r.pos[attr]
	if !ok {
		return nil, fmt.Errorf("relation: select on unknown attribute %q", attr)
	}
	return r.Select(func(t Tuple) bool { return t[j] == v }), nil
}

// Rename returns a copy of r with attributes renamed according to mapping.
// Attributes absent from the mapping keep their names.
func (r *Relation) Rename(mapping map[string]string) (*Relation, error) {
	attrs := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		if n, ok := mapping[a]; ok {
			attrs[i] = n
		} else {
			attrs[i] = a
		}
	}
	out, err := New(attrs...)
	if err != nil {
		return nil, err
	}
	out.data = append([]int(nil), r.data[:r.n*r.k]...)
	out.n = r.n
	return out, nil
}

// Union returns r ∪ s. The schemas must contain the same attribute names
// (possibly in different orders); the result uses r's order.
func (r *Relation) Union(s *Relation) (*Relation, error) {
	perm, err := alignSchemas(r, s)
	if err != nil {
		return nil, err
	}
	out := r.Clone()
	out.ensureIndex()
	scratch := make([]int, r.k)
	for i := 0; i < s.n; i++ {
		base := i * s.k
		for c, j := range perm {
			scratch[c] = s.data[base+j]
		}
		h := hashVals(scratch)
		if out.lookup(scratch, h) < 0 {
			out.appendIndexed(scratch, h)
		}
	}
	return out, nil
}

// Intersect returns r ∩ s. The schemas must contain the same attribute names.
func (r *Relation) Intersect(s *Relation) (*Relation, error) {
	perm, err := alignSchemas(r, s)
	if err != nil {
		return nil, err
	}
	out := MustNew(r.attrs...)
	if r.n == 0 || s.n == 0 {
		return out, nil
	}
	r.ensureIndex()
	scratch := make([]int, r.k)
	for i := 0; i < s.n; i++ {
		base := i * s.k
		for c, j := range perm {
			scratch[c] = s.data[base+j]
		}
		// Distinct rows of s stay distinct under the column permutation, so
		// the matches can be emitted without re-checking for duplicates.
		if r.lookup(scratch, hashVals(scratch)) >= 0 {
			out.appendUnique(scratch)
		}
	}
	return out, nil
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
		out[i] = r.row(i)
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

// alignSchemas checks the attribute sets are equal and returns, for each
// column of s, the column of r holding the same attribute... specifically
// perm[i] = position in r's schema of s's attribute i's value when
// re-laid-out, such that applyPerm(sTuple, perm) is in r's column order.
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

// applyPerm lays out tuple t (in s's column order) into r's column order,
// given perm as produced by alignSchemas.
func applyPerm(t Tuple, perm []int) Tuple {
	u := make(Tuple, len(perm))
	for i, j := range perm {
		u[i] = t[j]
	}
	return u
}

// sharedAttrs returns the attribute names common to r and s (in r's order)
// and the names of s not in r (in s's order).
func sharedAttrs(r, s *Relation) (common []string, sOnly []string) {
	for _, a := range r.attrs {
		if s.HasAttr(a) {
			common = append(common, a)
		}
	}
	for _, a := range s.attrs {
		if !r.HasAttr(a) {
			sOnly = append(sOnly, a)
		}
	}
	return common, sOnly
}

// distinctCounts returns the number of distinct values per column, cached
// until the next mutation. These are the statistics behind cost-based join
// ordering in JoinAllCtx. pl is ticked once per value counted, so counting a
// large intermediate result stays cancellable; a cancelled count caches
// nothing.
func (r *Relation) distinctCounts(pl *poller) ([]int, error) {
	if r.stats != nil {
		return r.stats, nil
	}
	stats := make([]int, r.k)
	seen := make(map[int]struct{}, r.n)
	for c := 0; c < r.k; c++ {
		clear(seen)
		for i := 0; i < r.n; i++ {
			if err := pl.tick(); err != nil {
				return nil, err
			}
			seen[r.data[i*r.k+c]] = struct{}{}
		}
		stats[c] = len(seen)
	}
	r.stats = stats
	return stats, nil
}
