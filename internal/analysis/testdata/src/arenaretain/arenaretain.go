// Package arenaretaintest exercises the arenaretain analyzer: arena row
// views from the kernel's accessors must not be stored in state that
// outlives the call.
package arenaretaintest

import (
	"csdb/internal/csp"
	"csdb/internal/relation"
	"csdb/internal/structure"
)

type cache struct {
	rows  []relation.Tuple
	first relation.Tuple
}

var globalRows []relation.Tuple

// badFieldStore: the accessor result lands in a struct field. (true positive)
func badFieldStore(c *cache, r *relation.Relation) {
	c.rows = r.Tuples()
}

// badFieldStoreViaLocal: taint flows through a local before escaping. (true
// positive)
func badFieldStoreViaLocal(c *cache, r *relation.Relation) {
	rows := r.SortedTuples()
	c.rows = rows
}

// badGlobalStore: package-level variables outlive everything. (true positive)
func badGlobalStore(r *relation.Relation) {
	globalRows = r.Tuples()
}

// badElementEscape: one view row, reached by indexing, stored in a field.
// (true positive)
func badElementEscape(c *cache, r *relation.Relation) {
	rows := r.Tuples()
	if len(rows) > 0 {
		c.first = rows[0]
	}
}

// badAppendEscape: append keeps the aliasing rows alive in the field. (true
// positive)
func badAppendEscape(c *cache, r *relation.Relation) {
	c.rows = append(c.rows, r.Tuples()...)
}

// badChannelSend: a channel hands the view to code running after this call.
// (true positive)
func badChannelSend(out chan []relation.Tuple, r *relation.Relation) {
	out <- r.Tuples()
}

// badTableField: csp.Table is the shared store, relation.Table. (true
// positive)
type tableCache struct {
	tuples [][]int
	row    []int
}

func badTableField(c *tableCache, t *csp.Table) {
	c.tuples = t.Tuples()
}

// badTableRow: one Row view of a csp.Table kept in a field. (true positive)
func badTableRow(c *tableCache, t *csp.Table) {
	if t.Len() > 0 {
		c.row = t.Row(0)
	}
}

// badInterpRow: a structure's interpretation is the same store, so a row of
// Rel(..).Tuples() aliases its arena too. (true positive)
func badInterpRow(c *tableCache, s *structure.Structure) {
	for _, row := range s.Rel("E").Tuples() {
		c.row = row
	}
}

// goodTableRowCopy: copying a Row view before keeping it. (near-miss
// negative)
func goodTableRowCopy(c *tableCache, t *csp.Table) {
	if t.Len() > 0 {
		c.row = append([]int(nil), t.Row(0)...)
	}
}

// goodLocalUse: reading a view inside the call is the accessor's intended
// use. (negative)
func goodLocalUse(r *relation.Relation) int {
	sum := 0
	for _, row := range r.Tuples() {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

// goodRowsStore: Rows deep-copies; storing it is safe. (near-miss negative:
// same shape as badFieldStore, different accessor)
func goodRowsStore(c *cache, r *relation.Relation) {
	c.rows = r.Rows()
}

// goodExplicitCopy: copying through a fresh slice launders the taint — the
// copy call's result is not a view. (near-miss negative)
func goodExplicitCopy(c *cache, r *relation.Relation) {
	views := r.Tuples()
	out := make([]relation.Tuple, len(views))
	for i, row := range views {
		out[i] = row.Clone()
	}
	c.rows = out
}

// goodReturnLocal: returning a view hands it up the same call chain; the
// caller's storage decisions are the caller's (and this analyzer's, when it
// checks the caller). (near-miss negative)
func goodReturnLocal(r *relation.Relation) []relation.Tuple {
	return r.Tuples()
}
