package relation

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// hashSeed and hashMul key the row hash, drawn once per process (like the
// Go map's hash seed). Every word of a row passes through a keyed,
// non-linear step, so no input can be computed in advance to give many rows
// one hash, or one home slot: an unkeyed word hash such as FNV-1a, mixed
// with a seed only at the end, lets a body pick rows whose hashes collide
// whatever the seed. Tests set hashMul to 0, which hashes every row to 0
// and so sends every row home to slot 0, to exercise long probe runs.
var hashSeed, hashMul = rand.Uint64(), rand.Uint64() | 1

// mix is the per-word step: the high and low words of the 128-bit product
// of the seeded input and the odd random multiplier, folded together.
func mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x^hashSeed, hashMul)
	return hi ^ lo
}

// hashVals hashes a full row. A row's home slot is its hash modulo the
// slot count, and equality of colliding rows is always verified against
// the stored values.
func hashVals(vals []int) uint64 {
	var h uint64
	for _, v := range vals {
		h = mix(h ^ uint64(v))
	}
	return h
}

// hashRowCols hashes the projection of the row starting at base in data onto
// the given column offsets, as hashVals hashes the projected row.
func hashRowCols(data []int, base int, cols []int) uint64 {
	var h uint64
	for _, c := range cols {
		h = mix(h ^ uint64(data[base+c]))
	}
	return h
}

// minSlots is the smallest index a table builds.
const minSlots = 8

// SlotCount returns the slot count a table of rows rows is indexed with:
// the least power of two at least twice rows (so the load stays at most one
// half), and at least minSlots.
func SlotCount(rows int) int {
	n := minSlots
	for n < 2*rows {
		n <<= 1
	}
	return n
}

// Table is the library's one tuple store: a set of integer rows of a fixed
// arity, kept in insertion order in a single flat row-major array. It is the
// R of a constraint (t, R) (csp.Table is this type), the interpretation of a
// relation symbol in a structure (structure.Interp is this type), and the
// storage of every Relation.
//
// Membership is an open-addressed index: a power-of-two array of slots, each
// 0 (empty) or a row id plus one, probed linearly from a row's home slot.
// The home slot is the row's hash, keyed per process in every word (see
// hashVals), so a hostile input cannot aim its rows at one probe run. The
// index is kept at most half full and is rebuilt at twice the size when an
// insert would pass that. A lookup allocates nothing, and a probe compares stored values, so
// hash collisions are never trusted.
//
// Concurrency: Add builds the index as it inserts, so a table filled through
// Add, MakeTable, Clone or Intersect never mutates itself on a read, and
// any number of goroutines may call Has, Index, Len, Row, Tuples, Digest and Equal
// on it at once.
// Only AddDistinct and a Relation's own operator results skip the index and
// build it lazily (see the package comment); such a table stays private to
// the code that fills it (a Relation, a join-tree bag) until a first lookup
// has built the index.
type Table struct {
	k     int     // arity
	n     int     // row count
	data  []int   // flat row-major values, len == n*k
	slots []int32 // open-addressed index, row id+1 or 0; nil until built
}

// NewTable returns an empty table of the given arity.
func NewTable(arity int) *Table {
	if arity < 0 {
		panic(fmt.Sprintf("relation: table arity %d", arity))
	}
	return &Table{k: arity}
}

// MakeTable returns the table of the rows held back to back in data, each
// of arity (>= 1) values, with its index built in slots, so that it is
// shareable read-only as a table filled through Add is. Duplicate rows are
// removed in place, and the first occurrence of each row keeps its place in
// the order, as Add keeps it. slots must be zero, with the length SlotCount
// gives for the rows data holds. The table keeps both buffers, data capped
// at its end, so a later Add reallocates instead of writing past them (a
// full index is rebuilt in a new array): a caller may carve many tables
// from one value array and one slot array.
func MakeTable(arity int, data []int, slots []int32) Table {
	if arity < 1 || len(data)%arity != 0 || len(slots) != SlotCount(len(data)/arity) {
		panic(fmt.Sprintf("relation: MakeTable of arity %d over %d values and %d slots", arity, len(data), len(slots)))
	}
	t := Table{k: arity, data: data[:0:len(data)], slots: slots}
	for i := 0; i < len(data); i += arity {
		row := data[i : i+arity]
		t.insert(row, hashVals(row))
	}
	return t
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
// and the membership index: a built index is resized at once, and an
// unbuilt one is later built with room for the rows the array can hold. It
// is a hint only.
func (t *Table) Grow(n int) {
	if n <= 0 {
		return
	}
	t.data = slices.Grow(t.data, n*t.k)
	if t.slots != nil && 2*(t.n+n) > len(t.slots) {
		t.rehash(SlotCount(t.n + n))
	}
}

// ensureIndex materializes the membership index, sized for every row the
// value array has room for. Only a table filled by appendUnique lacks one.
func (t *Table) ensureIndex() {
	if t.slots != nil {
		return
	}
	rows := t.n
	if t.k > 0 {
		rows = max(rows, cap(t.data)/t.k)
	}
	t.rehash(SlotCount(rows))
}

// rehash rebuilds the index with size slots.
func (t *Table) rehash(size int) {
	t.slots = make([]int32, size)
	for i := 0; i < t.n; i++ {
		t.place(hashVals(t.Row(i)), int32(i))
	}
}

// place records row id, whose hash is h, in the first empty slot of its
// probe run. The row must not already be in the index.
func (t *Table) place(h uint64, id int32) {
	mask := len(t.slots) - 1
	j := int(h) & mask
	for t.slots[j] != 0 {
		j = (j + 1) & mask
	}
	t.slots[j] = id + 1
}

// lookup returns the id of the row equal to vals, whose hash is h, or -1.
// The index must be built.
func (t *Table) lookup(vals []int, h uint64) int32 {
	mask := len(t.slots) - 1
	for j := int(h) & mask; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s == 0 {
			return -1
		}
		base := int(s-1) * t.k
		if slices.Equal(t.data[base:base+t.k], vals) {
			return s - 1
		}
	}
}

// reserve rebuilds the (built) index at twice its size when one more row
// would fill more than half of it.
func (t *Table) reserve() {
	if 2*(t.n+1) > len(t.slots) {
		t.rehash(2 * len(t.slots))
	}
}

// insert adds vals, whose hash is h, unless an equal row is stored, and
// returns the row's id and whether it was added. The index must be built.
func (t *Table) insert(vals []int, h uint64) (int32, bool) {
	t.reserve()
	mask := len(t.slots) - 1
	j := int(h) & mask
	for ; t.slots[j] != 0; j = (j + 1) & mask {
		base := int(t.slots[j]-1) * t.k
		if slices.Equal(t.data[base:base+t.k], vals) {
			return t.slots[j] - 1, false
		}
	}
	t.slots[j] = int32(t.n + 1)
	t.data = append(t.data, vals...)
	t.n++
	return int32(t.n - 1), true
}

// appendIndexed appends a row known to be absent and records it in the
// (built) index.
func (t *Table) appendIndexed(vals []int, h uint64) {
	t.reserve()
	t.place(h, int32(t.n))
	t.data = append(t.data, vals...)
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
	_, added := t.insert(row, hashVals(row))
	return added
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
	if t.slots != nil {
		t.appendIndexed(row, hashVals(row))
	} else {
		t.appendUnique(row)
	}
}

// Index returns the id of the row equal to row (its place in insertion
// order, as Row numbers it), or -1 when there is none. A row of the wrong
// arity is never a member.
func (t *Table) Index(row []int) int {
	if len(row) != t.k || t.n == 0 {
		return -1
	}
	t.ensureIndex()
	return int(t.lookup(row, hashVals(row)))
}

// Has reports whether row is in the table.
func (t *Table) Has(row []int) bool { return t.Index(row) >= 0 }

// Clone returns a deep copy. The copy carries the index when the original
// has one, so a clone of a shareable table is shareable too.
func (t *Table) Clone() *Table {
	return &Table{k: t.k, n: t.n, data: slices.Clone(t.data[:t.n*t.k]), slots: slices.Clone(t.slots)}
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

// Digest returns a content digest: equal tables (the same arity and the
// same rows, in any order) have equal digests. Unequal tables may share one,
// so a digest match is confirmed with Equal. It is an in-process key (it
// uses the per-process seed), not a stable serialization.
func (t *Table) Digest() uint64 {
	d := mix(uint64(t.k))
	for i := 0; i < t.n; i++ {
		d += hashVals(t.Row(i))
	}
	return d
}

// Equal reports whether t and u have the same arity and the same rows, in
// any order. Like Has, it builds u's index if u has none.
func (t *Table) Equal(u *Table) bool {
	if t.k != u.k || t.n != u.n {
		return false
	}
	for i := 0; i < t.n; i++ {
		if !u.Has(t.Row(i)) {
			return false
		}
	}
	return true
}
