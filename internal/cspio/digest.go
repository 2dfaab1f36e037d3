package cspio

import (
	"crypto/rand"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"csdb/internal/csp"
	"csdb/internal/relation"
)

// Digest is a keyed 128-bit digest of an instance that makes exactly the
// identifications Canonical makes — constraint order, row order, scope
// column order (rows permuted along, the same stable sort for a repeated
// scope variable), dom_of order and multiplicity, duplicate constraints and
// names — in one linear pass over the rows: it sorts no rows, ranks no
// values and renders no bytes. It is cspd's result-cache key.
//
// The construction, in each of two independent 64-bit lanes:
//
//   - a row hashes as a keyed chain over its values in sorted-scope column
//     order, h = mix(h ^ v) from h = 0;
//   - a constraint's row hashes are summed: a table is a set of rows, so
//     the sum is the multiset hash MSet-Add-Hash (Clarke et al., 2003),
//     blind to row order;
//   - the sum is chained after the sorted scope and before the row count,
//     so no constraint digest is linear in its rows;
//   - the distinct constraint digests, found through a hashed set, are
//     summed in turn, and the sum is chained after the head: vars, dom and
//     each restricted variable's distinct values, length-prefixed.
//
// mix is the keyed multiply-fold that relation.Table and the Go runtime's
// non-AES map hash use against hash flooding: the high and low words of
// the 128-bit product of the seeded input and a secret odd multiplier,
// folded together. It is not a cryptographic MAC. What it has to resist
// is an attacker who cannot compute it: the key is drawn from crypto/rand
// (NewDigestKey), held by one process, and no digest leaves it, so a
// colliding instance can only be guessed blind — and each per-value step
// is non-linear in its secret, so no instance can be built offline whose
// sums cancel another's whatever the key. A guess has to match both lanes,
// about one chance in 2^128. mix is one inline multiply per value and lane,
// where hash/maphash would cost a call per row over bytes rendered for it,
// and maphash's seed cannot be taken from crypto/rand.
//
// A digest is an in-process key, not a serialization: two keys give one
// instance unrelated digests. CanonicalHash is the stable, unkeyed hash.
func Digest(p *csp.Instance, key *DigestKey) [2]uint64 {
	k0, k1 := key[0], key[1]
	sc := digestScratches.Get().(*digestScratch)
	defer sc.release()

	cons := sc.cons[:0]
	for _, c := range p.Constraints {
		perm := scopeOrder(sc.perm[:0], c.Scope)
		sc.perm = perm
		t := c.Table
		var s0, s1 uint64
		for i := range t.Len() {
			row := t.Row(i)
			var h0, h1 uint64
			for _, col := range perm {
				v := uint64(row[col])
				h0, h1 = k0.mix(h0^v), k1.mix(h1^v)
			}
			s0 += h0
			s1 += h1
		}
		arity, rows := uint64(len(perm)), uint64(t.Len())
		c0, c1 := k0.mix(arity), k1.mix(arity)
		for _, col := range perm {
			v := uint64(c.Scope[col])
			c0, c1 = k0.mix(c0^v), k1.mix(c1^v)
		}
		c0, c1 = k0.mix(k0.mix(c0^s0)^rows), k1.mix(k1.mix(c1^s1)^rows)
		cons = append(cons, [2]uint64{c0, c1})
	}
	sum, distinct := sc.distinct(cons)
	sc.cons = cons

	// The head as a length-prefixed word sequence: vars, dom, the count of
	// restricted variables, and each one's index, value count and values.
	var d digestChain
	d.add(key, uint64(p.Vars))
	d.add(key, uint64(p.Dom))
	restricted := 0
	for _, dv := range p.Domains {
		if dv != nil {
			restricted++
		}
	}
	d.add(key, uint64(restricted))
	for v, dv := range p.Domains {
		if dv == nil {
			continue
		}
		sc.vals = append(sc.vals[:0], dv...)
		slices.Sort(sc.vals)
		dv = slices.Compact(sc.vals)
		d.add(key, uint64(v))
		d.add(key, uint64(len(dv)))
		for _, val := range dv {
			d.add(key, uint64(val))
		}
	}
	d.add(key, uint64(distinct))
	d.addPair(key, sum)
	return [2]uint64(d)
}

// DigestKey keys Digest: a seed and an odd multiplier for each lane.
type DigestKey [2]digestLane

type digestLane struct{ seed, mul uint64 }

// NewDigestKey draws a DigestKey from crypto/rand.
func NewDigestKey() *DigestKey {
	var b [32]byte
	// Read fails only where the system has no entropy source, and since
	// Go 1.24 it crashes the program there itself.
	if _, err := rand.Read(b[:]); err != nil {
		panic("cspio: crypto/rand: " + err.Error())
	}
	var k DigestKey
	for l := range k {
		k[l] = digestLane{binary.LittleEndian.Uint64(b[16*l:]), binary.LittleEndian.Uint64(b[16*l+8:]) | 1}
	}
	return &k
}

func (l digestLane) mix(x uint64) uint64 {
	hi, lo := bits.Mul64(x^l.seed, l.mul)
	return hi ^ lo
}

// digestChain is the pair of lane chains over the head.
type digestChain [2]uint64

func (d *digestChain) add(key *DigestKey, w uint64) {
	d.addPair(key, [2]uint64{w, w})
}

// addPair chains w[l] into lane l.
func (d *digestChain) addPair(key *DigestKey, w [2]uint64) {
	d[0], d[1] = key[0].mix(d[0]^w[0]), key[1].mix(d[1]^w[1])
}

// scopeOrder appends to perm the columns of scope in ascending variable
// order, ties in column order (the stable sort Canonical makes), by
// insertion: scopes are short.
func scopeOrder(perm, scope []int) []int {
	for i, v := range scope {
		j := len(perm)
		perm = append(perm, i)
		for ; j > 0 && scope[perm[j-1]] > v; j-- {
			perm[j] = perm[j-1]
		}
		perm[j] = i
	}
	return perm
}

// digestScratch is Digest's reusable state: the scope order, the
// constraint digests, the slots of the set that deduplicates them and a
// dom_of list's sorted copy.
type digestScratch struct {
	perm  []int
	cons  [][2]uint64
	slots []int32
	vals  []int
}

// distinct returns the lane-wise sum of the distinct digests in cons and
// their count. They are deduplicated through an open-addressed set homed by
// lane 0, which a keyed hash has already spread: a sum is blind to order,
// so nothing is sorted.
func (sc *digestScratch) distinct(cons [][2]uint64) (sum [2]uint64, n int) {
	size := relation.SlotCount(len(cons))
	if cap(sc.slots) < size {
		sc.slots = make([]int32, size)
	}
	slots := sc.slots[:size]
	clear(slots)
	mask := uint64(size - 1)
next:
	for i, c := range cons {
		j := c[0] & mask
		for ; slots[j] != 0; j = (j + 1) & mask {
			if cons[slots[j]-1] == c {
				continue next
			}
		}
		slots[j] = int32(i + 1)
		sum[0] += c[0]
		sum[1] += c[1]
		n++
	}
	return sum, n
}

var digestScratches = sync.Pool{New: func() any { return new(digestScratch) }}

// release returns sc to the pool, unless a large instance grew it.
func (sc *digestScratch) release() {
	if cap(sc.cons) > 1<<15 || cap(sc.slots) > 1<<16 || cap(sc.vals) > 1<<15 || cap(sc.perm) > 1<<10 {
		return
	}
	digestScratches.Put(sc)
}
