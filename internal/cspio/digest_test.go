package cspio

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"csdb/internal/csp"
)

// testDigestKey is a fixed key, so a failure reproduces.
var testDigestKey = &DigestKey{{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9}, {0x94d049bb133111eb, 0x2545f4914f6cdd1d}}

// randomInstance draws a small instance in which equal encodings happen by
// chance: 1-4 variables, scopes that may repeat a variable, tables that may
// be empty, dom_of lists that may name every value, and, when wide is set,
// an arity-9 constraint over 300 values whose rank keys overflow 64 bits,
// so Canonical renders its rows.
func randomInstance(rng *rand.Rand, wide bool) *csp.Instance {
	p := csp.NewInstance(1+rng.Intn(4), 1+rng.Intn(3))
	if wide {
		p.Dom = 300
	}
	for c := rng.Intn(4); c > 0; c-- {
		addRandomConstraint(rng, p, 1+rng.Intn(3), rng.Intn(4))
	}
	if wide {
		addRandomConstraint(rng, p, 9, 30)
	}
	if rng.Intn(2) == 0 {
		p.Domains = make([][]int, p.Vars)
		for v := range p.Domains {
			switch rng.Intn(3) {
			case 0:
				p.Domains[v] = rng.Perm(p.Dom) // every value, explicitly
			case 1:
				p.Domains[v] = rng.Perm(p.Dom)[:rng.Intn(p.Dom+1)]
			}
		}
	}
	return p
}

// addRandomConstraint adds a constraint of the given arity and up to rows
// random rows over random, possibly repeated, scope variables.
func addRandomConstraint(rng *rand.Rand, p *csp.Instance, arity, rows int) {
	scope := make([]int, arity)
	for i := range scope {
		scope[i] = rng.Intn(p.Vars)
	}
	tab := csp.NewTable(arity)
	for r := 0; r < rows; r++ {
		row := make([]int, arity)
		for i := range row {
			row[i] = rng.Intn(p.Dom)
		}
		tab.Add(row)
	}
	p.MustAddConstraint(scope, tab)
}

// represent returns a random re-presentation of p that Canonical
// identifies with it: constraints shuffled and some repeated (each copy
// presented afresh), every table's rows shuffled, scope columns permuted
// with the rows (columns of a repeated variable keep their relative order,
// as Canonical's stable sort needs), dom_of lists shuffled with repeats,
// an all-nil Domains in place of none, and names added (to at most 64
// variables).
func represent(rng *rand.Rand, p *csp.Instance) *csp.Instance {
	q := csp.NewInstance(p.Vars, p.Dom)
	for _, c := range p.Constraints {
		for copies := 1 + rng.Intn(3)/2; copies > 0; copies-- {
			q.Constraints = append(q.Constraints, representConstraint(rng, c))
		}
	}
	rng.Shuffle(len(q.Constraints), func(i, j int) {
		q.Constraints[i], q.Constraints[j] = q.Constraints[j], q.Constraints[i]
	})
	if p.Domains != nil || rng.Intn(2) == 0 {
		q.Domains = make([][]int, p.Vars)
	}
	for v, d := range p.Domains {
		if d == nil {
			continue
		}
		nd := slices.Clone(d)
		for extra := rng.Intn(3); extra > 0 && len(d) > 0; extra-- {
			nd = append(nd, d[rng.Intn(len(d))])
		}
		rng.Shuffle(len(nd), func(i, j int) { nd[i], nd[j] = nd[j], nd[i] })
		q.Domains[v] = nd
	}
	if q.Vars <= 64 && rng.Intn(2) == 0 {
		q.Names = make([]string, q.Vars)
		for v := range q.Names {
			q.Names[v] = fmt.Sprintf("x%d", rng.Intn(100))
		}
	}
	return q
}

// representConstraint permutes c's scope columns, taking the rows along,
// and shuffles its rows. A random permutation is first drawn, then each
// variable's columns are put back in their original relative order.
func representConstraint(rng *rand.Rand, c *csp.Constraint) *csp.Constraint {
	k := len(c.Scope)
	perm := rng.Perm(k) // new column i holds old column perm[i]
	for _, v := range c.Scope {
		var at, cols []int
		for i, old := range perm {
			if c.Scope[old] == v {
				at, cols = append(at, i), append(cols, old)
			}
		}
		slices.Sort(cols)
		for j, i := range at {
			perm[i] = cols[j]
		}
	}
	scope := make([]int, k)
	for i, old := range perm {
		scope[i] = c.Scope[old]
	}
	tab := csp.NewTable(k)
	for _, r := range rng.Perm(c.Table.Len()) {
		row, nrow := c.Table.Row(r), make([]int, k)
		for i, old := range perm {
			nrow[i] = row[old]
		}
		tab.Add(nrow)
	}
	return &csp.Constraint{Scope: scope, Table: tab}
}

// mutate returns a copy of p with one random change, which Canonical
// usually, but not always, tells apart from p: a row added, dropped or
// altered, a scope variable moved, a constraint added or dropped, a
// dom_of list changed or removed, or vars or dom grown.
func mutate(rng *rand.Rand, p *csp.Instance) *csp.Instance {
	q := csp.NewInstance(p.Vars, p.Dom)
	for _, c := range p.Constraints {
		q.Constraints = append(q.Constraints, &csp.Constraint{Scope: slices.Clone(c.Scope), Table: c.Table.Clone()})
	}
	if p.Domains != nil {
		q.Domains = make([][]int, len(p.Domains))
		for v, d := range p.Domains {
			if d != nil {
				q.Domains[v] = slices.Clone(d)
			}
		}
	}
	// Row edits rebuild the table from its rows, edited.
	editRows := func(c *csp.Constraint, edit func(rows [][]int) [][]int) {
		var rows [][]int
		for i := 0; i < c.Table.Len(); i++ {
			rows = append(rows, slices.Clone(c.Table.Row(i)))
		}
		c.Table = csp.TableOf(len(c.Scope), edit(rows)...)
	}
	randomRow := func(k int) []int {
		row := make([]int, k)
		for i := range row {
			row[i] = rng.Intn(q.Dom)
		}
		return row
	}
	if q.Vars == 0 {
		q.Vars++
		return q
	}
	if len(q.Constraints) == 0 {
		addRandomConstraint(rng, q, 1+rng.Intn(2), rng.Intn(3))
		return q
	}
	c := q.Constraints[rng.Intn(len(q.Constraints))]
	switch rng.Intn(9) {
	case 0:
		editRows(c, func(rows [][]int) [][]int { return append(rows, randomRow(len(c.Scope))) })
	case 1:
		editRows(c, func(rows [][]int) [][]int {
			if len(rows) == 0 {
				return rows
			}
			i := rng.Intn(len(rows))
			return append(rows[:i], rows[i+1:]...)
		})
	case 2:
		editRows(c, func(rows [][]int) [][]int {
			if len(rows) > 0 {
				rows[rng.Intn(len(rows))][rng.Intn(len(c.Scope))] = rng.Intn(q.Dom)
			}
			return rows
		})
	case 3:
		c.Scope[rng.Intn(len(c.Scope))] = rng.Intn(q.Vars)
	case 4:
		addRandomConstraint(rng, q, 1+rng.Intn(3), rng.Intn(3))
	case 5:
		i := rng.Intn(len(q.Constraints))
		q.Constraints = append(q.Constraints[:i], q.Constraints[i+1:]...)
	case 6:
		if q.Domains == nil {
			q.Domains = make([][]int, q.Vars)
		}
		d := make([]int, rng.Intn(min(q.Dom, 8)+1))
		for i := range d {
			d[i] = rng.Intn(q.Dom)
		}
		q.Domains[rng.Intn(len(q.Domains))] = d
	case 7:
		if q.Domains != nil {
			q.Domains[rng.Intn(len(q.Domains))] = nil
		}
	case 8:
		if rng.Intn(2) == 0 {
			q.Vars++
		} else {
			q.Dom++
		}
	}
	return q
}

// TestDigestIgnoresPresentation checks that every re-presentation Canonical
// identifies gets one digest, on random instances and every generator
// family, and that two keys give one instance different digests.
func TestDigestIgnoresPresentation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var insts []*csp.Instance
	for i := 0; i < 300; i++ {
		insts = append(insts, randomInstance(rng, i%10 == 0))
	}
	for _, fam := range canonicalFamilies() {
		insts = append(insts, fam...)
	}
	other := NewDigestKey()
	for i, p := range insts {
		want := Digest(p, testDigestKey)
		if Digest(p, other) == want {
			t.Fatalf("instance %d: two keys gave one digest %x", i, want)
		}
		for j := 0; j < 5; j++ {
			q := represent(rng, p)
			if !bytes.Equal(Canonical(q), Canonical(p)) {
				t.Fatalf("instance %d: re-presentation changed Canonical:\n%q\n%q", i, Canonical(p), Canonical(q))
			}
			if got := Digest(q, testDigestKey); got != want {
				t.Fatalf("instance %d: re-presentation %d digest %x, want %x\n%q", i, j, got, want, Canonical(p))
			}
		}
	}
}

// TestDigestAgreesWithCanonical is the key's differential gate: over
// random pairs, two digests are equal exactly when the Canonical bytes are.
// A pair is an instance and a re-presentation of it after zero, one or two
// mutations; both outcomes must occur, and some pairs must include a
// constraint that Canonical renders row by row.
func TestDigestAgreesWithCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var equal, differ, rendered int
	for i := 0; i < 3000; i++ {
		p := randomInstance(rng, i%20 == 0)
		q := p
		for m := rng.Intn(3); m > 0; m-- {
			q = mutate(rng, q)
		}
		q = represent(rng, q)
		same := bytes.Equal(Canonical(p), Canonical(q))
		if got := Digest(p, testDigestKey) == Digest(q, testDigestKey); got != same {
			t.Fatalf("pair %d: digests equal %v, Canonical equal %v\n%q\n%q", i, got, same, Canonical(p), Canonical(q))
		}
		if same {
			equal++
		} else {
			differ++
		}
		rt := newRankTable(p)
		for _, c := range p.Constraints {
			if rt.maxLen > 8 || len(c.Scope)*rt.width > 64 {
				rendered++
				break
			}
		}
	}
	if equal < 500 || differ < 500 || rendered == 0 {
		t.Fatalf("%d equal pairs, %d differing, %d with rendered rows: the draw does not exercise both sides", equal, differ, rendered)
	}
}
