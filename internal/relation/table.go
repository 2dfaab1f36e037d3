package relation

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

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

// Table is the library's one tuple store: a set of integer rows of a fixed
// arity, kept in insertion order in a single flat row-major array. It is the
// R of a constraint (t, R) (csp.Table is this type), the interpretation of a
// relation symbol in a structure (structure.Interp is this type), and the
// storage of every Relation.
//
// Membership is an integer-hash index: a map from the FNV-1a hash of a row
// to the most recently inserted row with that hash, chained through a
// per-row next array, so lookups allocate nothing and collisions are
// resolved by comparing the stored values.
//
// Concurrency: Add builds the index as it inserts, so a table filled through
// Add, Clone or Intersect never mutates itself on a read, and any number of
// goroutines may call Has, Len, Row, Tuples and Key on it at once. Only
// AddDistinct and a Relation's own operator results skip the index and
// build it lazily (see the package comment); such a table stays private to
// the code that fills it (a Relation, a join-tree bag) until a first lookup
// has built the index.
type Table struct {
	k     int              // arity
	n     int              // row count
	data  []int            // flat row-major values, len == n*k
	index map[uint64]int32 // row hash -> most recent row id with that hash
	next  []int32          // per-row chain to earlier same-hash rows; -1 ends
}

// NewTable returns an empty table of the given arity.
func NewTable(arity int) *Table {
	if arity < 0 {
		panic(fmt.Sprintf("relation: table arity %d", arity))
	}
	return &Table{k: arity}
}

// Arity returns the number of columns.
func (t *Table) Arity() int { return t.k }

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// Row returns row i as a view into the table's storage. It allocates
// nothing; the view must not be modified or kept past the caller's use
// (rows are only ever appended, so it stays valid, but it aliases the
// arena).
func (t *Table) Row(i int) []int {
	off := i * t.k
	return t.data[off : off+t.k : off+t.k]
}

// Tuples returns every row as a view into the table's storage, in insertion
// order. The slice is built afresh on each call, so concurrent callers never
// share a cache; hot loops should index with Len and Row instead. Do not
// modify the rows.
func (t *Table) Tuples() [][]int {
	rows := make([][]int, t.n)
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}

// Grow reserves capacity for n additional rows, sizing both the value array
// and (if already built) the membership index. It is a hint only.
func (t *Table) Grow(n int) {
	if n <= 0 {
		return
	}
	t.data = slices.Grow(t.data, n*t.k)
	if t.next != nil {
		t.next = slices.Grow(t.next, n)
	}
}

// ensureIndex materializes the membership index. Only a table filled by
// appendUnique lacks one.
func (t *Table) ensureIndex() {
	if t.index != nil {
		return
	}
	t.index = make(map[uint64]int32, t.n)
	t.next = make([]int32, 0, t.n)
	for i := 0; i < t.n; i++ {
		h := hashVals(t.Row(i))
		prev, ok := t.index[h]
		if !ok {
			prev = -1
		}
		t.next = append(t.next, prev)
		t.index[h] = int32(i)
	}
}

// lookup returns the id of the row equal to vals, or -1. The index must be
// built.
func (t *Table) lookup(vals []int, h uint64) int32 {
	id, ok := t.index[h]
	if !ok {
		return -1
	}
	for id >= 0 {
		base := int(id) * t.k
		if slices.Equal(t.data[base:base+t.k], vals) {
			return id
		}
		id = t.next[id]
	}
	return -1
}

// appendIndexed appends a row known to be absent and records it in the
// (built) index.
func (t *Table) appendIndexed(vals []int, h uint64) {
	t.data = append(t.data, vals...)
	prev, ok := t.index[h]
	if !ok {
		prev = -1
	}
	t.next = append(t.next, prev)
	t.index[h] = int32(t.n)
	t.n++
}

// appendUnique appends a row that the caller guarantees is distinct from all
// stored rows (set-semantics preserved by construction). Only legal while
// the index is unbuilt.
func (t *Table) appendUnique(vals []int) {
	t.data = append(t.data, vals...)
	t.n++
}

// Add inserts a copy of row and reports whether it was new; duplicates are
// ignored. It panics on an arity mismatch, which is a programming error.
func (t *Table) Add(row []int) bool {
	if len(row) != t.k {
		panic(fmt.Sprintf("relation: tuple arity %d for table arity %d", len(row), t.k))
	}
	t.ensureIndex()
	h := hashVals(row)
	if t.lookup(row, h) >= 0 {
		return false
	}
	t.appendIndexed(row, h)
	return true
}

// AddDistinct appends a copy of row, which the caller guarantees is not
// already in the table, without the membership check Add pays for: it is
// how a table (or a Relation) is filled in one pass from rows that are
// already a set. It panics on an arity mismatch, which is a programming
// error.
func (t *Table) AddDistinct(row []int) {
	if len(row) != t.k {
		panic(fmt.Sprintf("relation: tuple arity %d for table arity %d", len(row), t.k))
	}
	if t.index != nil {
		t.appendIndexed(row, hashVals(row))
	} else {
		t.appendUnique(row)
	}
}

// Has reports whether row is in the table. A row of the wrong arity is
// never a member.
func (t *Table) Has(row []int) bool {
	if len(row) != t.k || t.n == 0 {
		return false
	}
	t.ensureIndex()
	return t.lookup(row, hashVals(row)) >= 0
}

// Clone returns a deep copy. The copy carries the index when the original
// has one, so a clone of a shareable table is shareable too.
func (t *Table) Clone() *Table {
	c := &Table{k: t.k, n: t.n, data: slices.Clone(t.data[:t.n*t.k])}
	if t.index != nil {
		c.index = maps.Clone(t.index)
		c.next = slices.Clone(t.next)
	}
	return c
}

// Intersect returns the table of the rows present in both t and u, in t's
// order.
func (t *Table) Intersect(u *Table) (*Table, error) {
	if t.k != u.k {
		return nil, fmt.Errorf("relation: intersecting tables of arity %d and %d", t.k, u.k)
	}
	out := NewTable(t.k)
	for i := 0; i < t.n; i++ {
		if row := t.Row(i); u.Has(row) {
			out.Add(row)
		}
	}
	return out, nil
}

// Key returns a content key: the arity plus the sorted row encodings. Two
// tables have the same key iff they hold the same rows. It is an in-process
// map key (used to share equal tables), not a stable serialization.
func (t *Table) Key() string {
	keys := make([]string, t.n)
	for i := range keys {
		keys[i] = Tuple(t.Row(i)).Key()
	}
	slices.Sort(keys)
	return strconv.Itoa(t.k) + "|" + strings.Join(keys, ";")
}
