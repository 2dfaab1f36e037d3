package relation

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential tests: the integer-hash kernel against the retained
// string-keyed reference implementation (naive.go), plus the algebraic
// identities of the natural-join semiring. Any divergence is a kernel bug by
// definition — the naive kernel is the seed implementation the rest of the
// repo was validated against.

// sameRows compares a fast-kernel relation against a reference relation:
// identical attribute lists and identical sorted row sets.
func sameRows(t *testing.T, what string, got *Relation, want *naiveRel) {
	t.Helper()
	if len(got.Attrs()) != len(want.attrs) {
		t.Fatalf("%s: schema %v vs reference %v", what, got.Attrs(), want.attrs)
	}
	for i, a := range got.Attrs() {
		if want.attrs[i] != a {
			t.Fatalf("%s: schema %v vs reference %v", what, got.Attrs(), want.attrs)
		}
	}
	if got.Len() != len(want.tuples) {
		t.Fatalf("%s: %d rows vs reference %d", what, got.Len(), len(want.tuples))
	}
	gs := got.SortedTuples()
	ws := want.sortedRows()
	for i := range gs {
		if !gs[i].Equal(Tuple(ws[i])) {
			t.Fatalf("%s: row %d = %v vs reference %v", what, i, gs[i], ws[i])
		}
	}
}

// randomSchema picks a schema of 1..3 attributes from a small pool so that
// random pairs share 0, 1 or 2 attributes.
func randomSchema(rng *rand.Rand) []string {
	pool := []string{"a", "b", "c", "d", "e"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:1+rng.Intn(3)]
}

func randomRel(rng *rand.Rand, attrs []string, dom, maxRows int) *Relation {
	r := MustNew(attrs...)
	n := rng.Intn(maxRows + 1)
	for i := 0; i < n; i++ {
		t := make(Tuple, len(attrs))
		for j := range t {
			t[j] = rng.Intn(dom)
		}
		r.MustAdd(t)
	}
	return r
}

func TestDifferentialJoinSemijoinProject(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 500; trial++ {
		r := randomRel(rng, randomSchema(rng), 1+rng.Intn(5), 12)
		s := randomRel(rng, randomSchema(rng), 1+rng.Intn(5), 12)
		nr, ns := naiveFrom(r), naiveFrom(s)

		sameRows(t, fmt.Sprintf("trial %d join", trial), r.Join(s), nr.join(ns))
		sameRows(t, fmt.Sprintf("trial %d semijoin", trial), r.Semijoin(s), nr.semijoin(ns))

		proj := r.Attrs()[:1+rng.Intn(len(r.Attrs()))]
		got, err := r.Project(proj...)
		if err != nil {
			t.Fatalf("trial %d project: %v", trial, err)
		}
		sameRows(t, fmt.Sprintf("trial %d project", trial), got, nr.project(proj))
	}
}

func TestDifferentialJoinAll(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(4)
		rels := make([]*Relation, k)
		naives := make([]*naiveRel, k)
		for i := range rels {
			rels[i] = randomRel(rng, randomSchema(rng), 1+rng.Intn(4), 8)
			naives[i] = naiveFrom(rels[i])
		}
		got := JoinAll(rels)
		want := naiveJoinAll(naives)
		// The planner may order attributes differently than the left fold;
		// compare after projecting both onto the fold's attribute order.
		aligned, err := got.Project(want.attrs...)
		if err != nil {
			t.Fatalf("trial %d: fast schema %v missing reference attrs %v: %v",
				trial, got.Attrs(), want.attrs, err)
		}
		// Projection of the join onto the full attribute set is lossless.
		sameRows(t, fmt.Sprintf("trial %d joinall", trial), aligned, want)
	}
}

// JoinAll must be invariant under permutation of its inputs (the planner
// changes the evaluation order, never the result).
func TestJoinAllPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(4)
		rels := make([]*Relation, k)
		for i := range rels {
			rels[i] = randomRel(rng, randomSchema(rng), 1+rng.Intn(4), 8)
		}
		base := JoinAll(rels)
		perm := append([]*Relation(nil), rels...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if !JoinAll(perm).Equal(base) {
			t.Fatalf("trial %d: JoinAll changed under input permutation", trial)
		}
	}
}

// Property: r ⋉ s ≡ π_attrs(r)(r ⋈ s), the semijoin identity, on schemas
// with varying overlap.
func TestSemijoinIsProjectedJoinProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRel(rng, randomSchema(rng), 4, 10)
		s := randomRel(rng, randomSchema(rng), 4, 10)
		viaJoin, err := r.Join(s).Project(r.Attrs()...)
		if err != nil {
			return false
		}
		return r.Semijoin(s).Equal(viaJoin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzKernelVsNaive drives random operator sequences from a byte seed and
// cross-checks every intermediate against the reference kernel.
func FuzzKernelVsNaive(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(42), uint8(7))
	f.Add(int64(-9), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		dom := 1 + int(shape%6)
		r := randomRel(rng, randomSchema(rng), dom, 14)
		s := randomRel(rng, randomSchema(rng), dom, 14)
		nr, ns := naiveFrom(r), naiveFrom(s)
		j := r.Join(s)
		nj := nr.join(ns)
		if j.Len() != len(nj.tuples) {
			t.Fatalf("join size %d vs reference %d", j.Len(), len(nj.tuples))
		}
		sj := r.Semijoin(s)
		nsj := nr.semijoin(ns)
		if sj.Len() != len(nsj.tuples) {
			t.Fatalf("semijoin size %d vs reference %d", sj.Len(), len(nsj.tuples))
		}
		// Chain one more join to exercise operator-output relations (which
		// carry lazily built indexes) as inputs.
		u := randomRel(rng, randomSchema(rng), dom, 14)
		j2 := j.Join(u)
		nj2 := nj.join(naiveFrom(u))
		if j2.Len() != len(nj2.tuples) {
			t.Fatalf("chained join size %d vs reference %d", j2.Len(), len(nj2.tuples))
		}
		for _, row := range j2.Tuples() {
			if _, ok := nj2.index[naiveKey(row)]; !ok {
				t.Fatalf("chained join row %v missing from reference", row)
			}
		}
	})
}

// Hash collisions must be resolved by value comparison, never trusted. The
// chained index is exercised directly by inserting rows that share a bucket
// by construction: rows hashed on zero columns (a 0-column projection) all
// collide, which is the cartesian-join path, and a dense value grid stresses
// the full-row index — any unverified collision would lose a row or
// fabricate a duplicate.
func TestCollidingRowsAreDistinguished(t *testing.T) {
	r := MustNew("x", "y")
	n := 0
	for x := 0; x < 64; x++ {
		for y := 0; y < 64; y++ {
			r.MustAdd(Tuple{x, y})
			n++
		}
	}
	if r.Len() != n {
		t.Fatalf("lost rows: %d vs %d inserted", r.Len(), n)
	}
	if !r.Contains(Tuple{0, 0}) || r.Contains(Tuple{64, 64}) {
		t.Fatal("membership wrong after bulk insert")
	}
	// Cartesian join: every build row lives in one hash bucket (no shared
	// attributes), so the probe walks the full collision chain.
	u := MustFromTuples([]string{"z"}, []Tuple{{1}, {2}, {3}})
	if j := u.Join(MustFromTuples([]string{"w"}, []Tuple{{4}, {5}})); j.Len() != 6 {
		t.Fatalf("cartesian join via shared bucket = %d rows, want 6", j.Len())
	}
}

// --- Satellite: planning cost regression -------------------------------

// Planning work (cardinality estimations) must stay O(k²) over the whole
// JoinAll run — the seed planner re-scanned all pairs every round, i.e.
// Θ(k³) estimations.
func TestJoinAllPlanningCost(t *testing.T) {
	for _, k := range []int{8, 16, 32, 64} {
		rng := rand.New(rand.NewSource(int64(k)))
		rels := make([]*Relation, k)
		for i := range rels {
			rels[i] = randomRel(rng, []string{fmt.Sprintf("q%d", i), fmt.Sprintf("q%d", (i+1)%k)}, 3, 5)
		}
		before := estimateCalls.Load()
		JoinAll(rels)
		calls := estimateCalls.Load() - before
		// Exact planner cost: k(k-1)/2 initial pairs + (k-1-round) fresh
		// pairs per round < k². Allow 2× slack for future tweaks.
		if limit := int64(2 * k * k); calls > limit {
			t.Fatalf("k=%d: %d estimate calls, want <= %d (O(k²))", k, calls, limit)
		}
	}
}

// --- Satellite: defensive accessors ------------------------------------

// Mutating tuples returned by Rows must not corrupt the relation; Tuples is
// documented as view-sharing and must stay cheap.
func TestRowsIsDefensiveCopy(t *testing.T) {
	r := MustFromTuples([]string{"x", "y"}, []Tuple{{1, 2}, {3, 4}})
	rows := r.Rows()
	for _, row := range rows {
		row[0], row[1] = 99, 99
	}
	if !r.Contains(Tuple{1, 2}) || !r.Contains(Tuple{3, 4}) || r.Contains(Tuple{99, 99}) {
		t.Fatal("mutating Rows() output corrupted the relation")
	}
	if r.Len() != 2 {
		t.Fatalf("len changed: %d", r.Len())
	}
	// And the membership index still dedups correctly after the mutation.
	r.MustAdd(Tuple{1, 2})
	if r.Len() != 2 {
		t.Fatal("index corrupted: duplicate accepted after Rows mutation")
	}
}

// --- Parallel join path -------------------------------------------------

// The partitioned parallel probe must produce exactly the sequential result.
func TestParallelJoinMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	r := MustNew("x", "y")
	s := MustNew("y", "z")
	for i := 0; i < 3*parallelProbeMinDefault; i++ {
		r.MustAdd(Tuple{rng.Intn(4000), rng.Intn(4000)})
		s.MustAdd(Tuple{rng.Intn(4000), rng.Intn(4000)})
	}
	par := r.Join(s) // above threshold: parallel path

	old := parallelProbeMin
	parallelProbeMin = 1 << 30 // force sequential
	seq := r.Join(s)
	parallelProbeMin = old

	if par.Len() != seq.Len() || !par.Equal(seq) {
		t.Fatalf("parallel join (%d rows) != sequential join (%d rows)", par.Len(), seq.Len())
	}
	// Deterministic output: partition-order merge equals sequential order.
	pt, st := par.Tuples(), seq.Tuples()
	for i := range pt {
		if !pt[i].Equal(st[i]) {
			t.Fatalf("row order diverged at %d: %v vs %v", i, pt[i], st[i])
		}
	}
}

// A cancelled context aborts the parallel join promptly with its error.
func TestParallelJoinCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	r := MustNew("x", "y")
	s := MustNew("y", "z")
	for i := 0; i < 2*parallelProbeMinDefault; i++ {
		// Heavy skew: a few y values so the output explodes and the probe
		// loop has plenty of work to be cancelled out of.
		r.MustAdd(Tuple{i, rng.Intn(4)})
		s.MustAdd(Tuple{rng.Intn(4), i})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.joinCtx(ctx, s); err == nil {
		t.Fatal("cancelled parallel join returned no error")
	}
}

// Concurrent joins over shared, pre-indexed inputs must be race-free (run
// under -race in `make check`).
func TestConcurrentJoinsShareInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	r := MustNew("x", "y")
	s := MustNew("y", "z")
	for i := 0; i < parallelProbeMinDefault+100; i++ {
		r.MustAdd(Tuple{rng.Intn(2000), rng.Intn(2000)})
		s.MustAdd(Tuple{rng.Intn(2000), rng.Intn(2000)})
	}
	want := r.Join(s).Len()
	done := make(chan int, 4)
	for g := 0; g < 4; g++ {
		go func() { done <- r.Join(s).Len() }()
	}
	for g := 0; g < 4; g++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent join size %d, want %d", got, want)
		}
	}
}

// A context cancelled after JoinAllCtx's first poll stops the planner inside
// its O(k²) initial estimate pass: the pass polls every joinCheckEvery
// estimates, so far fewer than all k(k-1)/2 pairs are estimated.
func TestJoinAllPollsDuringPlanning(t *testing.T) {
	const k = 80 // 3,160 pairs, more than three poll intervals
	rels := make([]*Relation, k)
	for i := range rels {
		rels[i] = MustNew(fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1))
		for v := 0; v < 4; v++ {
			rels[i].AddDistinct(Tuple{v, (v + 1) % 4})
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := estimateCalls.Load()
	if _, err := JoinAllCtx(ctx, rels); err == nil {
		t.Fatal("JoinAllCtx under a cancelled context returned no error")
	}
	if calls := estimateCalls.Load() - before; calls > joinCheckEvery {
		t.Fatalf("planner made %d estimates before polling, want <= %d", calls, joinCheckEvery)
	}
}
