package relation

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// withOneHomeSlot runs f with every home slot forced to slot 0 (a zero
// multiplier in the hash's per-word step), so every probe run starts at the same slot and
// runs as long as the index is full; it restores the process's multiplier
// afterwards. Tables built inside f must not be used outside it.
func withOneHomeSlot(f func()) {
	saved := hashMul
	hashMul = 0
	defer func() { hashMul = saved }()
	f()
}

// checkIndex checks the open-addressed index's invariants: a power-of-two
// slot count, load at most one half, and every row recorded exactly once.
func checkIndex(t *testing.T, what string, tab *Table) {
	t.Helper()
	if tab.slots == nil {
		return
	}
	if n := len(tab.slots); bits.OnesCount(uint(n)) != 1 || n < minSlots || 2*tab.n > n {
		t.Fatalf("%s: %d slots for %d rows", what, n, tab.n)
	}
	seen := make([]bool, tab.n)
	for _, s := range tab.slots {
		if s == 0 {
			continue
		}
		if id := int(s - 1); id >= tab.n || seen[id] {
			t.Fatalf("%s: slot holds row %d of %d (or twice)", what, id, tab.n)
		} else {
			seen[id] = true
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("%s: row %d is in no slot", what, i)
	}
}

// TestTableMatchesNaiveIndex drives Table, the one tuple store, against the
// reference kernel's string-keyed map (naive.go): random arities 0-5 and
// sizes that cross every rebuild from minSlots to 4,096 slots, through Add,
// AddDistinct on a built and on an unbuilt index, Has on present, absent
// and wrong-arity rows, insertion order, Digest and Equal, and a Clone that
// must stay independent of its original in both directions. It runs once
// with the process's seeded home slots and once with every row sent home
// to slot 0, so lookups, inserts and rebuilds all walk long probe runs.
func TestTableMatchesNaiveIndex(t *testing.T) {
	for _, oneHome := range []bool{false, true} {
		run := func() {
			rng := rand.New(rand.NewSource(43))
			for trial := 0; trial < 40; trial++ {
				arity := trial % 6
				dom := 2 + rng.Intn(12)
				rows := 1 + rng.Intn(2000)
				if oneHome {
					rows = 1 + rng.Intn(300) // every probe walks the whole run
				}
				what := fmt.Sprintf("oneHome=%v trial %d (arity %d, dom %d)", oneHome, trial, arity, dom)
				tableDifferential(t, what, rng, arity, dom, rows)
			}
		}
		if oneHome {
			withOneHomeSlot(run)
		} else {
			run()
		}
	}
}

func tableDifferential(t *testing.T, what string, rng *rand.Rand, arity, dom, rows int) {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("c%d", i)
	}
	ref := newNaive(attrs)
	tab := NewTable(arity)
	randRow := func() []int {
		row := make([]int, arity)
		for i := range row {
			row[i] = rng.Intn(dom)
		}
		return row
	}
	has := func(row []int) bool {
		_, ok := ref.index[naiveKey(row)]
		return ok
	}
	var clone *Table
	var cloneRows int
	outside := make([]int, arity) // a row no random row equals, when arity > 0
	for i := range outside {
		outside[i] = dom
	}
	for i := 0; i < rows; i++ {
		row := randRow()
		switch {
		case i%7 == 3 && !has(row):
			tab.AddDistinct(row)
		default:
			if added := tab.Add(row); added == has(row) {
				t.Fatalf("%s: Add(%v) = %v with the row present = %v", what, row, added, has(row))
			}
		}
		ref.add(row)
		probe := randRow()
		if tab.Has(probe) != has(probe) {
			t.Fatalf("%s: Has(%v) = %v, reference %v", what, probe, tab.Has(probe), has(probe))
		}
		if i == rows/2 && arity > 0 {
			clone, cloneRows = tab.Clone(), tab.Len()
			if !clone.Add(outside) || tab.Has(outside) || tab.Len() != cloneRows {
				t.Fatalf("%s: a row added to the clone reached the original", what)
			}
		}
	}
	if tab.Len() != len(ref.tuples) {
		t.Fatalf("%s: Len %d, reference %d", what, tab.Len(), len(ref.tuples))
	}
	for i, want := range ref.tuples {
		if !slices.Equal(tab.Row(i), want) || !tab.Has(want) || tab.Index(want) != i {
			t.Fatalf("%s: row %d = %v (member %v, index %d), reference %v", what, i, tab.Row(i), tab.Has(want), tab.Index(want), want)
		}
	}
	if tab.Has(make([]int, arity+1)) || (arity > 0 && (tab.Has(outside) || tab.Index(outside) != -1 || tab.Has(make([]int, arity-1)))) {
		t.Fatalf("%s: Has accepted an absent row or a row of the wrong arity", what)
	}
	checkIndex(t, what, tab)

	// The clone kept its snapshot plus its own row, and none of the
	// original's later rows.
	if clone != nil {
		if clone.Len() != cloneRows+1 || !clone.Has(outside) {
			t.Fatalf("%s: clone has %d rows, want %d with its own row", what, clone.Len(), cloneRows+1)
		}
		for i := 0; i < tab.Len(); i++ {
			if clone.Has(tab.Row(i)) != (i < cloneRows) {
				t.Fatalf("%s: clone membership of original row %d is %v, cloned at %d rows", what, i, clone.Has(tab.Row(i)), cloneRows)
			}
		}
		checkIndex(t, what+" clone", clone)
		if clone.Equal(tab) || tab.Equal(clone) {
			t.Fatalf("%s: a clone with an extra row is Equal to its original", what)
		}
	}

	// The same rows in another order, through AddDistinct on an unbuilt
	// index (built by the first Has), are an equal table with an equal
	// digest.
	perm := rng.Perm(len(ref.tuples))
	lazy := NewTable(arity)
	for _, i := range perm {
		lazy.AddDistinct(ref.tuples[i])
	}
	if lazy.slots != nil {
		t.Fatalf("%s: AddDistinct built an index", what)
	}
	if !lazy.Equal(tab) || !tab.Equal(lazy) || lazy.Digest() != tab.Digest() {
		t.Fatalf("%s: reordered table: Equal %v/%v, digests %x and %x", what, lazy.Equal(tab), tab.Equal(lazy), lazy.Digest(), tab.Digest())
	}
	checkIndex(t, what+" lazy", lazy)
}

// TestJoinOperatorsWithOneHomeSlot runs the operators that index through
// slots (Join's build side, the join-tree reducer's Table keys, Project,
// Table.Intersect, Equal) against the reference kernel with every row sent home to slot 0,
// so each build and probe walks a probe run as long as its index is full.
func TestJoinOperatorsWithOneHomeSlot(t *testing.T) {
	withOneHomeSlot(func() {
		rng := rand.New(rand.NewSource(47))
		for trial := 0; trial < 60; trial++ {
			dom := 2 + rng.Intn(5)
			r := randomRel(rng, randomSchema(rng), dom, 60)
			s := randomRel(rng, randomSchema(rng), dom, 60)
			nr, ns := naiveFrom(r), naiveFrom(s)
			sameRows(t, "join", r.Join(s), nr.join(ns))
			rs, sr := reduceSemijoin(t, 1<<20, r, s)
			sameRows(t, "reduce child", rs, nr.semijoin(ns))
			sameRows(t, "reduce parent", sr, ns.semijoin(nr))
			attrs := r.Attrs()[:1]
			p, err := r.Project(attrs...)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, "project", p, nr.project(attrs))
			u := randomRel(rng, r.Attrs(), dom, 60)
			inter, err := r.Table.Intersect(&u.Table)
			if err != nil {
				t.Fatal(err)
			}
			want, nu := newNaive(r.Attrs()), naiveFrom(u)
			for _, row := range nr.tuples {
				if _, ok := nu.index[naiveKey(row)]; ok {
					want.add(row)
				}
			}
			sameRows(t, "intersect", mustFromTable(r.Attrs(), inter), want)
			if !r.Equal(r.Clone()) || !p.Equal(p.Clone()) {
				t.Fatalf("trial %d: a relation differs from its clone", trial)
			}
		}
	})
}

// TestConcurrentHasOnFilledTable reads one Add-filled table from several
// goroutines at once, as the portfolio's lanes read a shared constraint
// table; under the race detector (make race-kernel) any write on a read
// path fails it.
func TestConcurrentHasOnFilledTable(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tab := NewTable(3)
	for i := 0; i < 3000; i++ {
		tab.Add([]int{rng.Intn(20), rng.Intn(20), rng.Intn(20)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < tab.Len(); i++ {
				if !tab.Has(tab.Row(i)) {
					t.Errorf("goroutine %d: row %d missing", g, i)
					return
				}
			}
			if tab.Has([]int{20, g, 0}) || tab.Digest() != tab.Clone().Digest() {
				t.Errorf("goroutine %d: an absent row is a member, or a clone's digest differs", g)
			}
		}(g)
	}
	wg.Wait()
}

// fnvColliding returns n distinct arity-2 rows that all have one word-wise
// FNV-1a hash: for any a, the row (a, ((offset^a)·prime) ^ x) hashes to
// x·prime. An index keyed by FNV-1a, or by any unkeyed word hash mixed with
// a seed only at the end, sends every such row to one home slot.
func fnvColliding(n int) [][]int {
	const offset, prime = 14695981039346656037, 1099511628211
	const x = 0x5bd1e9955bd1e995
	rows := make([][]int, n)
	for a := range rows {
		rows[a] = []int{a, int((offset^uint64(a))*prime ^ x)}
	}
	fnv := func(row []int) uint64 {
		h := uint64(offset)
		for _, v := range row {
			h = (h ^ uint64(v)) * prime
		}
		return h
	}
	for _, row := range rows[1:] {
		if fnv(row) != fnv(rows[0]) {
			panic("fnvColliding: rows do not collide")
		}
	}
	return rows
}

// TestIndexSpreadsCraftedCollisions fills a table and a join build side
// with rows crafted to share one FNV-1a hash and checks that no
// row's probe distance from its home slot is long. Under a hash the body
// can compute, every row would share a home slot and the n-th insert would
// walk n slots: n²/2 row compares for n rows, the hash flood a hostile
// request body aims at the parser.
func TestIndexSpreadsCraftedCollisions(t *testing.T) {
	const n, maxProbe = 1 << 14, 64
	rows := fnvColliding(n)
	tab := NewTable(2)
	for _, row := range rows {
		tab.Add(row)
	}
	checkIndex(t, "crafted", tab)
	mask := len(tab.slots) - 1
	for j, s := range tab.slots {
		if s == 0 {
			continue
		}
		if d := (j - int(hashVals(tab.Row(int(s-1))))) & mask; d > maxProbe {
			t.Fatalf("row %d sits %d slots past its home (at most %d expected)", s-1, d, maxProbe)
		}
	}

	// A join build side keyed on both columns chains no two of them.
	r := &Relation{attrs: []string{"a", "b"}, Table: *tab}
	var jt joinTable
	if err := buildJoinTable(&Poller{}, &jt, &r.Table, []int{0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	for i, prev := range jt.next {
		if prev >= 0 {
			t.Fatalf("build row %d chained to row %d: distinct keys share a chain", i, prev)
		}
	}
	mask = len(jt.slots) - 1
	for j, s := range jt.slots {
		if s == 0 {
			continue
		}
		if d := (j - int(hashRowCols(r.data, int(s-1)*2, []int{0, 1}))) & mask; d > maxProbe {
			t.Fatalf("build row %d sits %d slots past its home", s-1, d)
		}
	}
}

// TestMakeTableMatchesAdd builds tables over one shared value array and one
// shared slot array, as a parser carves them, and holds each to the table
// Add builds from the same rows: the same rows in the same order (first
// occurrences kept), an index with its invariants, and, once a row is
// added to one of them, neighbours whose rows and lookups are unchanged.
func TestMakeTableMatchesAdd(t *testing.T) {
	for _, oneHome := range []bool{false, true} {
		run := func() {
			rng := rand.New(rand.NewSource(47))
			type span struct{ k, lo, hi int }
			var vals []int
			var spans []span
			slots := 0
			for range 40 {
				k, rows := 1+rng.Intn(3), rng.Intn(30)
				lo := len(vals)
				for range rows * k {
					vals = append(vals, rng.Intn(3))
				}
				spans = append(spans, span{k, lo, len(vals)})
				slots += SlotCount(rows)
			}
			want := make([]*Table, len(spans))
			for i, s := range spans {
				want[i] = NewTable(s.k)
				for j := s.lo; j < s.hi; j += s.k {
					want[i].Add(vals[j : j+s.k])
				}
			}
			index := make([]int32, slots)
			got := make([]Table, len(spans))
			for i, s := range spans {
				n := SlotCount((s.hi - s.lo) / s.k)
				got[i] = MakeTable(s.k, vals[s.lo:s.hi], index[:n])
				index = index[n:]
			}
			same := func(what string, i int) {
				g, w := &got[i], want[i]
				checkIndex(t, what, g)
				if !slices.Equal(g.data, w.data[:w.n*w.k]) || g.n != w.n {
					t.Fatalf("%s: table %d rows %v, Add gives %v", what, i, g.data, w.data[:w.n*w.k])
				}
				for j := 0; j < w.Len(); j++ {
					if !g.Has(w.Row(j)) {
						t.Fatalf("%s: table %d lost row %v", what, i, w.Row(j))
					}
				}
			}
			for i := range spans {
				same("made", i)
			}
			for i := range spans {
				row := make([]int, spans[i].k)
				for j := range row {
					row[j] = 7 + i
				}
				if !got[i].Add(row) {
					t.Fatalf("table %d: Add of a new row reported a duplicate", i)
				}
				want[i].Add(row)
				for j := range spans {
					same(fmt.Sprintf("after an Add to table %d", i), j)
				}
			}
		}
		if oneHome {
			withOneHomeSlot(run)
		} else {
			run()
		}
	}
}
