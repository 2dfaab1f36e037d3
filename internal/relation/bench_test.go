package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel benchmarks. These are the auditable speedup trail for the
// integer-hash columnar kernel: the same benchmarks were run against the
// string-keyed seed kernel and both sets of numbers live in
// BENCH_relation.json (see `make bench`).

// benchPair builds r(x,y) and s(y,z), each with n rows drawn from a domain
// of size dom, so a natural join matches ~n²/dom pairs on y.
func benchPair(n, dom int) (*Relation, *Relation) {
	rng := rand.New(rand.NewSource(17))
	r := MustNew("x", "y")
	s := MustNew("y", "z")
	for i := 0; i < n; i++ {
		r.MustAdd(Tuple{rng.Intn(dom), rng.Intn(dom)})
		s.MustAdd(Tuple{rng.Intn(dom), rng.Intn(dom)})
	}
	return r, s
}

// BenchmarkJoinLargeNatural is the acceptance benchmark for the kernel
// rewrite: a large two-way natural join whose output (~n²/dom rows)
// dominates the cost.
func BenchmarkJoinLargeNatural(b *testing.B) {
	r, s := benchPair(10000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := r.Join(s)
		if j.Empty() {
			b.Fatal("join unexpectedly empty")
		}
	}
}

func BenchmarkProjectLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	r := MustNew("x", "y", "z")
	for i := 0; i < 30000; i++ {
		r.MustAdd(Tuple{rng.Intn(50), rng.Intn(50), rng.Intn(50)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Project("z", "x"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinBuildDedup is Add-dominated: building a relation from rows
// with ~50% duplicates exercises the membership index on every insert.
func BenchmarkJoinBuildDedup(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	rows := make([]Tuple, 40000)
	for i := range rows {
		rows[i] = Tuple{rng.Intn(120), rng.Intn(120), rng.Intn(120)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := MustNew("a", "b", "c")
		for _, t := range rows {
			r.MustAdd(t)
		}
	}
}

func BenchmarkJoinMembership(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	r := MustNew("a", "b", "c")
	probes := make([]Tuple, 0, 4096)
	for i := 0; i < 20000; i++ {
		t := Tuple{rng.Intn(80), rng.Intn(80), rng.Intn(80)}
		r.MustAdd(t)
		if len(probes) < cap(probes) {
			probes = append(probes, t)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range probes {
			if !r.Has(t) {
				b.Fatal("member missing")
			}
		}
	}
}

// chainRelations builds k binary relations R_i(a_i, a_{i+1}) over a shared
// chain of attributes — the multiway-join workload of JoinAll. With
// dom == rows each pairwise join keeps ~rows tuples in expectation, so the
// chain exercises join ordering and execution without the output exploding
// (at dom << rows the expected final size is rows·(rows/dom)^(k-1)).
func chainRelations(k, rows, dom int) []*Relation {
	rng := rand.New(rand.NewSource(37))
	rels := make([]*Relation, k)
	for i := range rels {
		r := MustNew(fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1))
		for j := 0; j < rows; j++ {
			r.MustAdd(Tuple{rng.Intn(dom), rng.Intn(dom)})
		}
		rels[i] = r
	}
	return rels
}

func BenchmarkJoinAllChain(b *testing.B) {
	rels := chainRelations(8, 20000, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JoinAll(rels)
	}
}

// BenchmarkJoinAllPlanning isolates join-order planning cost: many tiny
// relations, so the per-round pair selection (not join execution) dominates.
// The regression guarded here is the O(k²·rounds) re-scan of all pairs per
// round; planning must stay ~O(k² log k) total.
func BenchmarkJoinAllPlanning(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	const k = 64
	rels := make([]*Relation, k)
	for i := range rels {
		r := MustNew(fmt.Sprintf("p%d", i), fmt.Sprintf("p%d", (i+1)%k))
		for j := 0; j < 4; j++ {
			r.MustAdd(Tuple{rng.Intn(3), rng.Intn(3)})
		}
		rels[i] = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JoinAll(rels)
	}
}
