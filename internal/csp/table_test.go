package csp_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/gen"
	"csdb/internal/structure"
)

// TestTableDifferential drives the one tuple store through its csp.Table and
// structure.Structure entry points against a map[string]bool oracle:
// duplicate adds, membership of absent rows and of rows of the wrong arity,
// Len, Clone, the content key (Digest and Equal) and insertion order.
func TestTableDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		arity := 1 + rng.Intn(3)
		dom := 2 + rng.Intn(4)
		tab := csp.NewTable(arity)
		s := structure.MustNew(structure.MustVocabulary(structure.Symbol{Name: "R", Arity: arity}), dom)
		oracle := map[string]bool{}
		var order [][]int
		randRow := func() []int {
			row := make([]int, arity)
			for i := range row {
				row[i] = rng.Intn(dom)
			}
			return row
		}
		for op := 0; op < 3*dom*arity; op++ {
			row := randRow()
			k := fmt.Sprint(row)
			added := tab.Add(row)
			if err := s.AddTuple("R", row...); err != nil {
				t.Fatal(err)
			}
			if added == oracle[k] {
				t.Fatalf("trial %d: Add(%v) = %v with row already present = %v", trial, row, added, oracle[k])
			}
			if !oracle[k] {
				oracle[k] = true
				order = append(order, slices.Clone(row))
			}
			row[0] = -1 // Add copied the row: the store must not see this write
		}
		in := s.Rel("R")
		for _, got := range []*csp.Table{tab, in, tab.Clone(), s.Clone().Rel("R")} {
			if got.Len() != len(order) {
				t.Fatalf("trial %d: Len = %d, oracle %d", trial, got.Len(), len(order))
			}
			for i, want := range order {
				if !slices.Equal(got.Row(i), want) || !slices.Equal(got.Tuples()[i], want) {
					t.Fatalf("trial %d: row %d = %v, want %v (insertion order)", trial, i, got.Row(i), want)
				}
			}
			for probe := 0; probe < 20; probe++ {
				row := randRow()
				if got.Has(row) != oracle[fmt.Sprint(row)] {
					t.Fatalf("trial %d: Has(%v) = %v, oracle %v", trial, row, got.Has(row), oracle[fmt.Sprint(row)])
				}
			}
			if got.Has(make([]int, arity+1)) || got.Has(make([]int, arity-1)) {
				t.Fatalf("trial %d: Has accepted a row of the wrong arity", trial)
			}
			if got.Digest() != tab.Digest() || !got.Equal(tab) || !tab.Equal(got) {
				t.Fatalf("trial %d: equal tables have digests %x and %x (Equal %v)", trial, got.Digest(), tab.Digest(), got.Equal(tab))
			}
		}
		if s.HasTuple("R", make([]int, arity)...) != oracle[fmt.Sprint(make([]int, arity))] {
			t.Fatalf("trial %d: HasTuple disagrees with the oracle", trial)
		}

		// The key ignores insertion order and sees every row.
		rev := csp.NewTable(arity)
		for i := len(order) - 1; i >= 0; i-- {
			rev.Add(order[i])
		}
		if rev.Digest() != tab.Digest() || !rev.Equal(tab) {
			t.Fatalf("trial %d: key depends on insertion order", trial)
		}
		outside := make([]int, arity) // a row outside the domain: new
		for i := range outside {
			outside[i] = dom
		}
		c := tab.Clone()
		if !c.Add(outside) || c.Equal(tab) || tab.Equal(c) || tab.Len() != len(order) || tab.Has(outside) {
			t.Fatalf("trial %d: a clone's new row leaked into the original or its key", trial)
		}
	}
}

// TestPortfolioSharesTables races the portfolio on a freshly parsed instance
// while other goroutines read the same tables through Satisfies, Has and
// Tuples, none of which has been called on them before. Under -race this
// pins the store's contract: Add builds the index, so reads never write.
func TestPortfolioSharesTables(t *testing.T) {
	var body bytes.Buffer
	src := gen.PhaseTransition(rand.New(rand.NewSource(3)), 20, 10, 0.3)
	if err := cspio.Format(&body, src); err != nil {
		t.Fatal(err)
	}
	p, err := cspio.ParseBytes(body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			assign := make([]int, p.Vars)
			for round := 0; round < 50; round++ {
				for v := range assign {
					assign[v] = rng.Intn(p.Dom)
				}
				p.Satisfies(assign)
				con := p.Constraints[rng.Intn(len(p.Constraints))]
				rows := con.Table.Tuples()
				if len(rows) != con.Table.Len() {
					t.Errorf("Tuples has %d rows, Len %d", len(rows), con.Table.Len())
					return
				}
				for _, row := range rows {
					if !con.Table.Has(row) {
						t.Errorf("Has(%v) = false for a row of Tuples", row)
						return
					}
				}
			}
		}(int64(g))
	}
	res := csp.Portfolio(context.Background(), p, csp.PortfolioOptions{})
	wg.Wait()
	if res.Aborted {
		t.Fatal("portfolio aborted without limits")
	}
	if want := csp.SolveSeed(src, csp.Options{}).Found; res.Found != want {
		t.Fatalf("portfolio found=%v, seed engine says %v", res.Found, want)
	}
	if res.Found && !p.Satisfies(res.Solution) {
		t.Fatal("portfolio witness does not satisfy the instance")
	}
}
