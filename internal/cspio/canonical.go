package cspio

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
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
//
// A row encodes as the decimal code "v " of each value, and a constraint's
// rows are sorted by those bytes. The codes are prefix-free, so that is the
// order of the rows' value sequences under the byte order of single codes:
// the encoder ranks the values in that order once per instance (rankTable),
// packs each row's ranks into a uint64 key, sorts the keys as integers and
// writes each distinct row's codes from the rank table. A constraint whose
// keys would not fit 64 bits, or whose codes might not fit 8 bytes, is
// rendered and byte-sorted row by row.

// Canonical returns the canonical byte encoding of p.
func Canonical(p *csp.Instance) []byte {
	head, enc, cons := encode(p)
	return enc.appendSorted(slices.Grow(head, len(enc.buf)), cons, 0)
}

// FNV-1a, 64-bit, as hash/fnv's New64a computes it.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// CanonicalHash returns the 64-bit FNV-1a hash of Canonical(p). It hashes
// the encoding's pieces in place rather than joining them first.
func CanonicalHash(p *csp.Instance) uint64 {
	head, enc, cons := encode(p)
	h := fnv1a(fnvOffset64, head)
	buf := enc.buf
	enc.sortSpans(cons)
	for i, s := range cons {
		if i > 0 && bytes.Equal(buf[s.lo:s.hi], buf[cons[i-1].lo:cons[i-1].hi]) {
			continue
		}
		h = fnv1a(h, buf[s.lo:s.hi])
	}
	return h
}

func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// encode returns the encoding's head (vars, dom and the domain
// restrictions) and an encoder holding every constraint's encoding, one
// span each, unsorted.
func encode(p *csp.Instance) ([]byte, *encoder, []span) {
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

	// Constraints: each one is encoded independently into buf as a span;
	// the caller sorts the spans and drops exact duplicates (a repeated
	// constraint is a no-op).
	enc := &encoder{ranks: newRankTable(p)}
	size := 0
	for _, c := range p.Constraints {
		size += c.Table.Len()*(c.Table.Arity()*enc.ranks.maxLen+1) + 8*len(c.Scope) + 3
	}
	enc.buf = make([]byte, 0, size+8)
	cons := make([]span, 0, len(p.Constraints))
	for _, c := range p.Constraints {
		lo := len(enc.buf)
		enc.constraint(c)
		cons = append(cons, span{lo, len(enc.buf)})
	}
	return head, enc, cons
}

// span is the byte range [lo,hi) of one row or constraint encoding in an
// encoder's buffer.
type span struct{ lo, hi int }

// encoder appends constraint encodings, back to back, to one buffer; rows,
// keys and perm are scratch reused across constraints.
type encoder struct {
	buf   []byte
	ranks rankTable
	rows  []span
	keys  []uint64
	perm  []int
}

// constraint appends c's encoding: its scope columns in ascending variable
// order (a stable sort, so duplicate scope variables keep their relative
// column order) and its tuples permuted accordingly, sorted, and
// deduplicated.
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
	if w := e.ranks.width; e.ranks.maxLen <= 8 && len(perm)*w <= 64 {
		e.keyedRows(c.Table, perm, w)
	} else {
		e.renderedRows(c.Table, perm)
	}
	e.buf = append(e.buf, ';')
}

// keyedRows appends t's rows, columns in perm order, sorted and
// deduplicated through their rank keys of w bits per column.
func (e *encoder) keyedRows(t *csp.Table, perm []int, w int) {
	rt := &e.ranks
	keys := e.keys[:0]
	for i := 0; i < t.Len(); i++ {
		row := t.Row(i)
		var key uint64
		if rank := rt.dense; rank != nil {
			for _, col := range perm {
				key = key<<w | uint64(rank[row[col]])
			}
		} else {
			for _, col := range perm {
				j, _ := slices.BinarySearch(rt.vals, row[col])
				key = key<<w | uint64(rt.ranks[j])
			}
		}
		keys = append(keys, key)
	}
	slices.Sort(keys)
	e.keys = keys
	// Every code fits a word: store whole words and advance by the code's
	// length, into a buffer grown once with a word of slack at the end.
	mask := uint64(1)<<w - 1
	n := len(e.buf)
	b := slices.Grow(e.buf, len(keys)*(len(perm)*rt.maxLen+1)+8)
	b = b[:cap(b)]
	for i, key := range keys {
		if i > 0 && key == keys[i-1] {
			continue
		}
		for j := len(perm) - 1; j >= 0; j-- {
			r := key >> (j * w) & mask
			binary.LittleEndian.PutUint64(b[n:], rt.words[r])
			n += int(rt.lens[r])
		}
		b[n] = '|'
		n++
	}
	e.buf = b[:n]
}

// renderedRows appends t's rows, columns in perm order, sorted and
// deduplicated by their bytes: the row encodings are written past the end
// of buf, sorted as spans, appended in order after themselves, and the
// sorted copy is then moved down over the unsorted one.
func (e *encoder) renderedRows(t *csp.Table, perm []int) {
	raw := len(e.buf)
	e.rows = e.rows[:0]
	for i := 0; i < t.Len(); i++ {
		row, lo := t.Row(i), len(e.buf)
		for _, col := range perm {
			e.buf = appendInt(e.buf, row[col])
		}
		e.rows = append(e.rows, span{lo, len(e.buf)})
	}
	sorted := len(e.buf)
	e.buf = e.appendSorted(e.buf, e.rows, '|')
	e.buf = e.buf[:raw+copy(e.buf[raw:], e.buf[sorted:])]
}

// sortSpans sorts spans by the bytes they cover in e.buf.
func (e *encoder) sortSpans(spans []span) {
	buf := e.buf
	slices.SortFunc(spans, func(a, b span) int {
		return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi])
	})
}

// appendSorted sorts spans by the bytes they cover in e.buf and appends
// each distinct one to dst, followed by sep when sep is not 0.
func (e *encoder) appendSorted(dst []byte, spans []span, sep byte) []byte {
	buf := e.buf
	e.sortSpans(spans)
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

// rankTable ranks the values in an instance's tables in the byte order of
// their codes ("v ") and holds each rank's code. When every value lies in
// [0,dom) and dom is at most the number of table cells, it ranks all of
// [0,dom) through a table indexed by value (dense); otherwise it ranks only
// the distinct values present, found by binary search. Either way it costs
// O(cells log cells), never O(dom) beyond the cells. The dense table is
// the fast path, not a second necessity: ranking by binary search alone
// makes CanonicalHash 1.4-2.9 times slower on the dispatch benchmark's
// families.
type rankTable struct {
	dense  []uint32 // rank of each value in [0,dom), when dense
	vals   []int    // the distinct values in numeric order, when not dense
	ranks  []uint32 // rank of each of vals
	words  []uint64 // each rank's code as little-endian bytes
	lens   []uint8  // each rank's code length
	maxLen int      // the longest code's length; over 8, words are unusable
	width  int      // bits per packed rank: enough for the largest rank
}

// add records the code of the next rank.
func (rt *rankTable) add(code []byte) {
	var word [8]byte
	copy(word[:], code)
	rt.words = append(rt.words, binary.LittleEndian.Uint64(word[:]))
	rt.lens = append(rt.lens, uint8(len(code)))
	rt.maxLen = max(rt.maxLen, len(code))
}

func newRankTable(p *csp.Instance) rankTable {
	cells, inRange := 0, true
	for _, c := range p.Constraints {
		t := c.Table
		cells += t.Len() * t.Arity()
		for i := 0; i < t.Len() && inRange; i++ {
			for _, v := range t.Row(i) {
				if v < 0 || v >= p.Dom {
					inRange = false
					break
				}
			}
		}
	}
	var rt rankTable
	if inRange && p.Dom <= cells {
		rt.dense = make([]uint32, p.Dom)
		var code []byte
		decimalOrder(p.Dom, func(v int) {
			rt.dense[v] = uint32(len(rt.words))
			code = appendInt(code[:0], v)
			rt.add(code)
		})
	} else {
		vals := make([]int, 0, cells)
		for _, c := range p.Constraints {
			for i := 0; i < c.Table.Len(); i++ {
				vals = append(vals, c.Table.Row(i)...)
			}
		}
		slices.Sort(vals)
		rt.vals = slices.Compact(vals)
		// Render the codes in numeric order, then sort value indices by
		// their codes' bytes.
		var codes []byte
		at := make([]int32, len(rt.vals)+1)
		for i, v := range rt.vals {
			codes = appendInt(codes, v)
			at[i+1] = int32(len(codes))
		}
		order := make([]int32, len(rt.vals))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			return bytes.Compare(codes[at[a]:at[a+1]], codes[at[b]:at[b+1]])
		})
		rt.ranks = make([]uint32, len(rt.vals))
		for r, i := range order {
			rt.ranks[i] = uint32(r)
			rt.add(codes[at[i]:at[i+1]])
		}
	}
	if n := len(rt.words); n > 1 {
		rt.width = bits.Len(uint(n - 1))
	}
	return rt
}

// decimalOrder calls visit on 0..n-1 in the byte order of their decimal
// codes: 0, then a preorder walk of the digit tree under each of 1..9
// (1, 10, 100, ..., 101, ..., 11, ...), since a code sorts before every
// code it prefixes.
func decimalOrder(n int, visit func(v int)) {
	if n > 0 {
		visit(0)
	}
	var walk func(v int)
	walk = func(v int) {
		visit(v)
		for c := v * 10; c < v*10+10 && c < n; c++ {
			walk(c)
		}
	}
	for v := 1; v < 10 && v < n; v++ {
		walk(v)
	}
}

func appendInt(b []byte, v int) []byte {
	b = strconv.AppendInt(b, int64(v), 10)
	return append(b, ' ')
}
