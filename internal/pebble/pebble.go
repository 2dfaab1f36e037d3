// Package pebble implements the existential k-pebble games of Section 4 of
// the paper (Kolaitis–Vardi). Given two relational structures A and B over a
// common vocabulary, it computes the largest winning strategy for the
// Duplicator — the set H^k(A,B) of partial homomorphisms h_{ā,b̄} with
// (ā,b̄) ∈ W^k(A,B) — as a greatest fixpoint, and thereby decides in
// polynomial time (for fixed k) whether the Spoiler or the Duplicator wins
// (Theorem 4.5).
//
// A winning strategy is a family of partial homomorphisms with domains of at
// most k elements that is closed under subfunctions and has the k-forth
// extension property. The Duplicator wins iff the family is nonempty
// (equivalently: iff it contains the empty function). The family is one
// relation.Table per domain size j <= k, whose rows are j ascending elements
// of A followed by their images in B, with a dead mark per row. The forth
// property is AC-4 lifted to k-tuples: a support count per (f, x) of the
// live functions f ∪ {x ↦ y}. Read before anything is removed, the counts
// decide i-consistency and strong k-consistency (Proposition 5.3).
package pebble

import (
	"fmt"
	"slices"

	"csdb/internal/relation"
	"csdb/internal/structure"
)

// Pair is one pebble placement: element A of the left structure mapped to
// element B of the right structure.
type Pair struct {
	A, B int
}

// PartialHom is a partial function from A's domain to B's domain given as
// pairs sorted by the A component (each A component distinct).
type PartialHom []Pair

// Lookup returns the image of a and whether a is in the domain.
func (f PartialHom) Lookup(a int) (int, bool) {
	for _, p := range f {
		if p.A == a {
			return p.B, true
		}
	}
	return 0, false
}

// Extend returns f ∪ {a ↦ b} with the pair inserted in sorted position.
// It must only be called with a not in f's domain.
func (f PartialHom) Extend(a, b int) PartialHom {
	g := make(PartialHom, 0, len(f)+1)
	inserted := false
	for _, p := range f {
		if !inserted && a < p.A {
			g = append(g, Pair{a, b})
			inserted = true
		}
		g = append(g, p)
	}
	if !inserted {
		g = append(g, Pair{a, b})
	}
	return g
}

// Without returns f with the pair at index i removed.
func (f PartialHom) Without(i int) PartialHom {
	g := make(PartialHom, 0, len(f)-1)
	g = append(g, f[:i]...)
	g = append(g, f[i+1:]...)
	return g
}

// level holds the functions of one domain size j.
type level struct {
	rows *relation.Table // arity 2j: j ascending elements of A, then their images
	dead []bool          // dead[f]: f was removed from the family
	// cnt[f*|A|+x] counts the live rows f ∪ {x ↦ y} of the next level, for
	// x outside f's domain; ext[extAt[f]:extAt[f+1]] lists every such row.
	// Both are nil at size K.
	cnt, ext, extAt []int32
	// sub[g*j+i] is the id, one level down, of g without its i-th element.
	sub []int32
}

// Strategy is a family of partial homomorphisms from A to B with domains of
// size at most K. LargestStrategy returns families that are closed under
// subfunctions and have the k-forth property (i.e. winning strategies for
// the Duplicator, or the empty family when the Spoiler wins).
type Strategy struct {
	K      int
	A, B   *structure.Structure
	levels []level // levels[j] for j = 0..K
	live   int
}

// Size returns the number of partial homomorphisms in the strategy
// (including the empty function when nonempty).
func (s *Strategy) Size() int { return s.live }

// NonEmpty reports whether the family contains any function — by Theorem
// 5.6 this is exactly W^k(A,B) ≠ ∅, i.e. the Duplicator wins.
func (s *Strategy) NonEmpty() bool { return s.live > 0 }

// Has reports whether the given partial function belongs to the strategy.
func (s *Strategy) Has(f PartialHom) bool {
	j := len(f)
	if j > s.K {
		return false
	}
	row := make([]int, 2*j)
	for i, p := range f {
		row[i], row[j+i] = p.A, p.B
	}
	return s.has(j, row)
}

// has reports whether the size-j row is a live member.
func (s *Strategy) has(j int, row []int) bool {
	lv := &s.levels[j]
	id := lv.rows.Index(row)
	return id >= 0 && !lv.dead[id]
}

// checker incrementally validates partial homomorphisms: tuplesAt[a] lists
// the (relation, tuple) pairs mentioning element a of A, and inB[a][i] is
// B's relation of tuplesAt[a][i], resolved once.
type checker struct {
	tuplesAt [][]structure.RelTuple
	inB      [][]*structure.Interp
	img      []int
}

func newChecker(a, b *structure.Structure) *checker {
	tuplesAt := a.TuplesContaining()
	total := 0
	for _, rts := range tuplesAt {
		total += len(rts)
	}
	inB, flat := make([][]*structure.Interp, len(tuplesAt)), make([]*structure.Interp, total)
	for x, rts := range tuplesAt {
		inB[x], flat = flat[:len(rts)], flat[len(rts):]
		for i, rt := range rts {
			inB[x][i] = b.Rel(rt.Rel)
		}
	}
	return &checker{tuplesAt: tuplesAt, inB: inB, img: make([]int, 0, a.MaxArity())}
}

// extensionOK reports whether f ∪ {x ↦ y} is still a partial homomorphism,
// assuming f, a row of size j, already is. Only tuples mentioning x and
// otherwise inside dom(f) need to be checked.
func (c *checker) extensionOK(f []int, j, x, y int) bool {
tuples:
	for t, rt := range c.tuplesAt[x] {
		img := c.img[:0]
		for _, v := range rt.Tuple {
			w := y
			if v != x {
				i := slices.Index(f[:j], v)
				if i < 0 {
					continue tuples // tuple not fully inside dom(f)+x
				}
				w = f[j+i]
			}
			img = append(img, w)
		}
		if !c.inB[x][t].Has(img) {
			return false
		}
	}
	return true
}

// PartialHoms returns the family of every partial homomorphism from a to b
// whose domain has at most k elements, with its forth-support counts: the
// family LargestStrategy starts from, before any function is removed. It
// has the k-forth property, and so is a winning strategy for the
// Duplicator, exactly when (a, b) is strongly k-consistent (Proposition
// 5.3).
func PartialHoms(a, b *structure.Structure, k int) (*Strategy, error) {
	if k < 1 {
		return nil, fmt.Errorf("pebble: k must be >= 1, got %d", k)
	}
	if !a.Voc().Equal(b.Voc()) {
		return nil, fmt.Errorf("pebble: structures have different vocabularies")
	}
	nA, nB := a.Size(), b.Size()
	s := &Strategy{K: k, A: a, B: b, levels: make([]level, k+1)}
	c := newChecker(a, b)

	// Level j+1 extends each row of level j by an element above its
	// largest, so every domain is generated once, in increasing order, and
	// the rows are distinct.
	s.levels[0].rows = relation.NewTable(0)
	s.levels[0].rows.Add(nil)
	for j := 0; j < k; j++ {
		rows := s.levels[j].rows
		var data []int
		for f := 0; f < rows.Len(); f++ {
			row := rows.Row(f)
			x0 := 0
			if j > 0 {
				x0 = row[j-1] + 1
			}
			for x := x0; x < nA; x++ {
				for y := 0; y < nB; y++ {
					if c.extensionOK(row, j, x, y) {
						data = append(append(append(append(data, row[:j]...), x), row[j:]...), y)
					}
				}
			}
		}
		arity := 2 * (j + 1)
		next := relation.MakeTable(arity, data, make([]int32, relation.SlotCount(len(data)/arity)))
		s.levels[j+1].rows = &next
	}

	// Each row counts once for each of its restrictions, at its own
	// element, and is listed among their extensions. Restrictions of a
	// partial homomorphism are partial homomorphisms, so every lookup
	// finds its row.
	buf := make([]int, 0, 2*k)
	for j := range s.levels {
		lv := &s.levels[j]
		n := lv.rows.Len()
		lv.dead = make([]bool, n)
		s.live += n
		if j == 0 {
			continue
		}
		down := &s.levels[j-1]
		down.cnt, down.extAt = make([]int32, down.rows.Len()*nA), make([]int32, down.rows.Len()+1)
		lv.sub = make([]int32, n*j)
		for g := 0; g < n; g++ {
			row := lv.rows.Row(g)
			for i := 0; i < j; i++ {
				// row without its i-th element: the elements after i and
				// the images before i are adjacent.
				buf = append(append(append(buf[:0], row[:i]...), row[i+1:j+i]...), row[j+i+1:]...)
				r := down.rows.Index(buf)
				lv.sub[g*j+i] = int32(r)
				down.cnt[r*nA+row[i]]++
				down.extAt[r+1]++
			}
		}
		for r := 1; r < len(down.extAt); r++ {
			down.extAt[r] += down.extAt[r-1]
		}
		down.ext = make([]int32, len(lv.sub))
		fill := slices.Clone(down.extAt)
		for at, r := range lv.sub {
			down.ext[fill[r]] = int32(at / j)
			fill[r]++
		}
	}
	return s, nil
}

// Forth reports whether every live function of size j extends, within the
// family, to every element of A outside its domain: no live row of level j
// has a zero support count. j must be below K. On the family PartialHoms
// returns, this is (j+1)-consistency (Proposition 5.3).
func (s *Strategy) Forth(j int) bool {
	lv := &s.levels[j]
	for f, dead := range lv.dead {
		if !dead && s.starved(j, f) {
			return false
		}
	}
	return true
}

// starved reports whether row f of level j has an element x outside its
// domain with no live extension f ∪ {x ↦ y}.
func (s *Strategy) starved(j, f int) bool {
	lv := &s.levels[j]
	nA := s.A.Size()
	row, cnt := lv.rows.Row(f), lv.cnt[f*nA:(f+1)*nA]
	for x, d := 0, 0; x < nA; x++ {
		if d < j && row[d] == x {
			d++
		} else if cnt[x] == 0 {
			return true
		}
	}
	return false
}

// LargestStrategy computes the largest winning strategy for the Duplicator
// in the existential k-pebble game on a and b (Proposition 5.1): the union
// of all winning strategies. The returned strategy is empty iff the Spoiler
// wins.
func LargestStrategy(a, b *structure.Structure, k int) (*Strategy, error) {
	s, err := PartialHoms(a, b, k)
	if err != nil {
		return nil, err
	}
	s.reduce()
	return s, nil
}

// reduce removes functions until the family has the k-forth property: the
// greatest fixpoint of PartialHoms' family. A removed function leaves the
// counts of its restrictions, and a restriction left without support at
// its element goes too; so do the extensions of a removed function, which
// keeps the family closed under subfunctions.
func (s *Strategy) reduce() {
	nA := s.A.Size()
	type ref struct{ j, id int }
	var removed []ref // dead rows not yet taken out of the counts
	kill := func(j, id int) {
		s.levels[j].dead[id] = true
		s.live--
		removed = append(removed, ref{j, id})
	}
	for j := 0; j < s.K; j++ {
		for f := range s.levels[j].dead {
			if s.starved(j, f) {
				kill(j, f)
			}
		}
	}
	for len(removed) > 0 {
		r := removed[len(removed)-1]
		removed = removed[:len(removed)-1]
		lv := &s.levels[r.j]
		if r.j < s.K {
			up := &s.levels[r.j+1]
			for _, g := range lv.ext[lv.extAt[r.id]:lv.extAt[r.id+1]] {
				if !up.dead[g] {
					kill(r.j+1, int(g))
				}
			}
		}
		if r.j == 0 {
			continue
		}
		row, down := lv.rows.Row(r.id), &s.levels[r.j-1]
		for i, f := range lv.sub[r.id*r.j : (r.id+1)*r.j] {
			c := &down.cnt[int(f)*nA+row[i]]
			if *c--; *c == 0 && !down.dead[f] {
				kill(r.j-1, int(f))
			}
		}
	}
}

// DuplicatorWins reports whether the Duplicator wins the existential
// k-pebble game on a and b.
func DuplicatorWins(a, b *structure.Structure, k int) (bool, error) {
	s, err := LargestStrategy(a, b, k)
	if err != nil {
		return false, err
	}
	return s.NonEmpty(), nil
}

// SpoilerWins reports whether the Spoiler wins the existential k-pebble game
// on a and b. By Theorem 4.6, for structures B whose ¬CSP(B) is expressible
// in k-Datalog, this coincides with the nonexistence of a homomorphism.
func SpoilerWins(a, b *structure.Structure, k int) (bool, error) {
	d, err := DuplicatorWins(a, b, k)
	return !d, err
}

// ConfigurationsOf returns, for a given tuple ā over A's domain (repetitions
// allowed, 1 <= len(ā) <= K), the set R_ā = { b̄ : (ā, b̄) ∈ W^k(A,B) } of
// Theorem 5.6 step 2: all value tuples whose induced correspondence is a
// partial function belonging to the strategy, in lexicographic order.
func (s *Strategy) ConfigurationsOf(abar []int) [][]int {
	if len(abar) == 0 || len(abar) > s.K {
		return nil
	}
	// row holds the distinct elements of ā in increasing order, then the
	// images being tried.
	row := slices.Clone(abar)
	slices.Sort(row)
	row = slices.Compact(row)
	j := len(row)
	row = append(row, make([]int, j)...)
	var out [][]int
	bbar := make([]int, len(abar))
	var rec func(i int)
	rec = func(i int) {
		if i == len(abar) {
			if s.has(j, row) {
				out = append(out, slices.Clone(bbar))
			}
			return
		}
		p := slices.Index(row[:j], abar[i])
		if slices.Index(abar, abar[i]) < i {
			// Repeated element: the correspondence must stay functional.
			bbar[i] = row[j+p]
			rec(i + 1)
			return
		}
		for b := 0; b < s.B.Size(); b++ {
			row[j+p], bbar[i] = b, b
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
