package cspio

import (
	"bytes"
	"cmp"
	"hash/fnv"
	"slices"
	"strconv"

	"csdb/internal/csp"
)

// Canonical instance encoding: a byte string that identifies a CSP instance
// up to the orderings that do not change its meaning, so that syntactically
// different but semantically identical submissions hash to the same cache
// key. Two instances get the same encoding when they differ only in
//
//   - the order constraints are listed,
//   - the order of tuples within a constraint's table,
//   - the column order of a constraint's scope (tuples are permuted along
//     with the scope),
//   - the order (and multiplicity) of values in a dom_of restriction,
//   - duplicate constraints, and
//   - variable labels (names are presentation, not semantics).
//
// The encoding is conservative: it never identifies two instances with
// different solution sets, but it does not try to detect deeper equivalences
// (variable renamings, symmetric tables under duplicate scope variables).

// Canonical returns the canonical byte encoding of p.
func Canonical(p *csp.Instance) []byte {
	var head []byte
	head = appendInt(head, p.Vars)
	head = appendInt(head, p.Dom)

	// Per-variable domain restrictions, in variable-index order with values
	// sorted and deduplicated. A nil entry (full domain) is skipped, so an
	// instance with no Domains slice matches one with all-nil entries.
	var vals []int
	for v, d := range p.Domains {
		if d == nil {
			continue
		}
		vals = append(vals[:0], d...)
		slices.Sort(vals)
		head = append(head, 'D')
		head = appendInt(head, v)
		for _, val := range slices.Compact(vals) {
			head = appendInt(head, val)
		}
		head = append(head, ';')
	}

	// Constraints: each one is encoded independently into buf as a span,
	// then the spans are sorted and exact duplicates dropped (a repeated
	// constraint is a no-op).
	var enc encoder
	cons := make([]span, 0, len(p.Constraints))
	for _, c := range p.Constraints {
		lo := len(enc.buf)
		enc.constraint(c)
		cons = append(cons, span{lo, len(enc.buf)})
	}
	return enc.appendSorted(slices.Grow(head, len(enc.buf)), cons, 0)
}

// CanonicalHash returns the 64-bit FNV-1a hash of Canonical(p).
func CanonicalHash(p *csp.Instance) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(Canonical(p))
	return h.Sum64()
}

// span is the byte range [lo,hi) of one row or constraint encoding in an
// encoder's buffer.
type span struct{ lo, hi int }

// encoder appends constraint encodings, back to back, to one buffer; rows
// and perm are scratch reused across constraints.
type encoder struct {
	buf  []byte
	rows []span
	perm []int
}

// constraint appends c's encoding: its scope columns in ascending variable
// order (a stable sort, so duplicate scope variables keep their relative
// column order) and its tuples permuted accordingly, sorted, and
// deduplicated. The row encodings are written past the end of buf, sorted
// as spans, appended in order after themselves, and the sorted copy is then
// moved down over the unsorted one.
func (e *encoder) constraint(c *csp.Constraint) {
	perm := e.perm[:0]
	for i := range c.Scope {
		perm = append(perm, i)
	}
	slices.SortStableFunc(perm, func(a, b int) int { return cmp.Compare(c.Scope[a], c.Scope[b]) })
	e.perm = perm

	e.buf = append(e.buf, 'C')
	for _, col := range perm {
		e.buf = appendInt(e.buf, c.Scope[col])
	}
	e.buf = append(e.buf, ':')
	raw := len(e.buf)
	e.rows = e.rows[:0]
	for t := 0; t < c.Table.Len(); t++ {
		row, lo := c.Table.Row(t), len(e.buf)
		for _, col := range perm {
			e.buf = appendInt(e.buf, row[col])
		}
		e.rows = append(e.rows, span{lo, len(e.buf)})
	}
	sorted := len(e.buf)
	e.buf = e.appendSorted(e.buf, e.rows, '|')
	e.buf = append(e.buf, ';')
	e.buf = e.buf[:raw+copy(e.buf[raw:], e.buf[sorted:])]
}

// appendSorted sorts spans by the bytes they cover in e.buf and appends
// each distinct one to dst, followed by sep when sep is not 0.
func (e *encoder) appendSorted(dst []byte, spans []span, sep byte) []byte {
	buf := e.buf
	slices.SortFunc(spans, func(a, b span) int {
		return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi])
	})
	for i, s := range spans {
		if i > 0 && bytes.Equal(buf[s.lo:s.hi], buf[spans[i-1].lo:spans[i-1].hi]) {
			continue
		}
		dst = append(dst, buf[s.lo:s.hi]...)
		if sep != 0 {
			dst = append(dst, sep)
		}
	}
	return dst
}

func appendInt(b []byte, v int) []byte {
	b = strconv.AppendInt(b, int64(v), 10)
	return append(b, ' ')
}
