package csp

import "math/bits"

// DomainSet stores every variable's current domain as a bitset over the
// instance's value range: one word-aligned []uint64 row per variable plus a
// cached popcount, so membership, removal and wipeout tests are single-word
// operations and MRV reads a precomputed size instead of rescanning. It is
// the domain representation of the bitset search engine (bitsolver.go) and
// of the consistency package's standalone GAC entry points.
type DomainSet struct {
	vars, dom int
	words     int      // words per variable row
	bits      []uint64 // vars rows of `words` words, flattened
	size      []int    // popcount cache per variable
}

// NewDomainSet builds the initial domains of an instance, honoring any
// per-variable Domains restriction (out-of-range or duplicate values are
// ignored, matching the seed searcher).
func NewDomainSet(p *Instance) *DomainSet {
	words := (p.Dom + 63) >> 6
	if words == 0 {
		words = 1
	}
	d := &DomainSet{
		vars:  p.Vars,
		dom:   p.Dom,
		words: words,
		bits:  make([]uint64, p.Vars*words),
		size:  make([]int, p.Vars),
	}
	for v := 0; v < p.Vars; v++ {
		if p.Domains == nil || p.Domains[v] == nil {
			for val := 0; val < p.Dom; val++ {
				d.bits[v*words+val>>6] |= 1 << (val & 63)
			}
			d.size[v] = p.Dom
			continue
		}
		for _, val := range p.Domains[v] {
			if val >= 0 && val < p.Dom && !d.Has(v, val) {
				d.bits[v*words+val>>6] |= 1 << (val & 63)
				d.size[v]++
			}
		}
	}
	return d
}

// row is the raw word slice of one variable's domain.
func (d *DomainSet) row(v int) []uint64 {
	return d.bits[v*d.words : (v+1)*d.words]
}

// Has reports whether val is still in v's domain.
func (d *DomainSet) Has(v, val int) bool {
	return d.bits[v*d.words+val>>6]&(1<<(val&63)) != 0
}

// Remove deletes val from v's domain, reporting whether it was present.
func (d *DomainSet) Remove(v, val int) bool {
	w := &d.bits[v*d.words+val>>6]
	m := uint64(1) << (val & 63)
	if *w&m == 0 {
		return false
	}
	*w &^= m
	d.size[v]--
	return true
}

// Restore re-adds val to v's domain (trail undo).
func (d *DomainSet) Restore(v, val int) {
	w := &d.bits[v*d.words+val>>6]
	m := uint64(1) << (val & 63)
	if *w&m == 0 {
		*w |= m
		d.size[v]++
	}
}

// Size is the number of values left in v's domain.
func (d *DomainSet) Size(v int) int { return d.size[v] }

// Single returns the only value of a singleton domain (undefined unless
// Size(v) >= 1; for larger domains it returns the smallest value).
func (d *DomainSet) Single(v int) int {
	row := d.row(v)
	for w, word := range row {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Next returns the smallest domain value of v that is >= from, or -1.
func (d *DomainSet) Next(v, from int) int {
	if from >= d.dom {
		return -1
	}
	row := d.row(v)
	w := from >> 6
	word := row[w] >> (from & 63) << (from & 63) // clear bits below from
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= d.words {
			return -1
		}
		word = row[w]
	}
}

// Values appends v's remaining domain values to buf and returns it.
func (d *DomainSet) Values(v int, buf []int) []int {
	row := d.row(v)
	for w, word := range row {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			buf = append(buf, w<<6+b)
		}
	}
	return buf
}
