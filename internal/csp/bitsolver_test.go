package csp

import (
	"context"
	"testing"
	"time"
)

func TestDomainSetBasics(t *testing.T) {
	p := NewInstance(3, 70) // two words per row
	p.Domains = [][]int{nil, {1, 64, 69, 69, -1, 70}, {5}}
	d := NewDomainSet(p)
	if d.Size(0) != 70 || d.Size(1) != 3 || d.Size(2) != 1 {
		t.Fatalf("sizes %d %d %d", d.Size(0), d.Size(1), d.Size(2))
	}
	if !d.Has(1, 64) || d.Has(1, 0) || !d.Has(0, 69) {
		t.Fatal("membership wrong after init")
	}
	if got := d.Values(1, nil); len(got) != 3 || got[0] != 1 || got[1] != 64 || got[2] != 69 {
		t.Fatalf("Values = %v", got)
	}
	if d.Single(2) != 5 {
		t.Fatalf("Single = %d", d.Single(2))
	}
	if d.Next(1, 2) != 64 || d.Next(1, 65) != 69 || d.Next(1, 70) != -1 {
		t.Fatalf("Next iteration wrong: %d %d %d", d.Next(1, 2), d.Next(1, 65), d.Next(1, 70))
	}
	if !d.Remove(1, 64) || d.Remove(1, 64) {
		t.Fatal("Remove should report presence exactly once")
	}
	if d.Size(1) != 2 || d.Has(1, 64) {
		t.Fatal("Remove did not update state")
	}
	d.Restore(1, 64)
	d.Restore(1, 64) // idempotent
	if d.Size(1) != 3 || !d.Has(1, 64) {
		t.Fatal("Restore did not reinstate the value once")
	}
}

func TestCompileSupportsMasks(t *testing.T) {
	p := NewInstance(2, 3)
	tbl := NewTable(2)
	tbl.Add([]int{0, 1})
	tbl.Add([]int{2, 1})
	tbl.Add([]int{2, 2})
	p.MustAddConstraint([]int{0, 1}, tbl)
	sp := CompileSupports(p.Constraints[0], p.Dom)
	if sp.Tuples() != 3 || sp.Words() != 1 || sp.hasRepeat {
		t.Fatalf("tuples=%d words=%d hasRepeat=%v", sp.Tuples(), sp.Words(), sp.hasRepeat)
	}
	if sp.tail != 0b111 {
		t.Fatalf("tail = %b", sp.tail)
	}
	// Position 0 carries values {0, 2}; position 1 carries {1, 2}.
	if !sp.HasValue(0, 0) || sp.HasValue(0, 1) || !sp.HasValue(1, 2) || sp.HasValue(1, 0) {
		t.Fatal("HasValue wrong")
	}
	if m := sp.mask(0, 2); m[0] != 0b110 {
		t.Fatalf("mask(0,2) = %b", m[0])
	}
	rep := CompileSupports(&Constraint{Scope: []int{0, 0}, Table: tbl}, p.Dom)
	if !rep.hasRepeat {
		t.Fatal("repeated scope not flagged")
	}
}

func TestSupportsRevise(t *testing.T) {
	p := NewInstance(2, 3)
	tbl := NewTable(2)
	tbl.Add([]int{0, 1})
	tbl.Add([]int{2, 1})
	tbl.Add([]int{2, 2})
	p.MustAddConstraint([]int{0, 1}, tbl)
	sp := CompileSupports(p.Constraints[0], p.Dom)
	d := NewDomainSet(p)
	scratch := make([]uint64, 2*sp.Words())

	var pruned []nglit
	live, ok := sp.Revise(d, scratch, func(v, val int) bool {
		pruned = append(pruned, nglit{int32(v), int32(val)})
		d.Remove(v, val)
		return true
	})
	if !ok || live != 3 {
		t.Fatalf("live=%d ok=%v", live, ok)
	}
	// Value 1 of var 0 and value 0 of var 1 have no supporting tuple.
	if len(pruned) != 2 || pruned[0] != (nglit{0, 1}) || pruned[1] != (nglit{1, 0}) {
		t.Fatalf("pruned %v", pruned)
	}

	// Narrow var 1 to {2}: only tuple (2,2) survives, so var 0 loses 0.
	d.Remove(1, 1)
	pruned = pruned[:0]
	live, ok = sp.Revise(d, scratch, func(v, val int) bool {
		pruned = append(pruned, nglit{int32(v), int32(val)})
		d.Remove(v, val)
		return true
	})
	if !ok || live != 1 || len(pruned) != 1 || pruned[0] != (nglit{0, 0}) {
		t.Fatalf("live=%d ok=%v pruned=%v", live, ok, pruned)
	}

	// Empty var 0: revision reports a dead constraint.
	d.Remove(0, 2)
	if _, ok = sp.Revise(d, scratch, func(v, val int) bool { t.Fatal("prune on dead constraint"); return false }); ok {
		t.Fatal("Revise ok on empty live set")
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestNogoodStoreRecord(t *testing.T) {
	st := newNogoodStore(4, 3)
	if st.record(nil) {
		t.Fatal("recorded empty nogood")
	}
	if !st.record([]nglit{{2, 1}}) || len(st.units) != 1 || st.units[0] != (nglit{2, 1}) {
		t.Fatalf("unit nogood not stored: %v", st.units)
	}
	long := make([]nglit, maxNogoodLen+1)
	if st.record(long) {
		t.Fatal("recorded overlong nogood")
	}
	if !st.record([]nglit{{0, 0}, {1, 2}}) {
		t.Fatal("binary nogood rejected")
	}
	if len(st.ngs) != 1 {
		t.Fatalf("%d stored nogoods", len(st.ngs))
	}
	if w := st.watches[0*3+0]; len(w) != 1 || w[0] != 0 {
		t.Fatalf("watch list of (0,0): %v", w)
	}
	if w := st.watches[1*3+2]; len(w) != 1 || w[0] != 0 {
		t.Fatalf("watch list of (1,2): %v", w)
	}
}

// TestLearnTrivialInstances pins the learning engine's edge-case semantics
// against the rest of the engine family.
func TestLearnTrivialInstances(t *testing.T) {
	empty := NewInstance(0, 3)
	if res := Solve(empty, Options{Learn: true}); !res.Found || len(res.Solution) != 0 {
		t.Fatalf("0-var instance: %+v", res)
	}

	unsat := NewInstance(1, 2)
	unsat.MustAddConstraint([]int{0}, NewTable(1)) // empty table
	if res := Solve(unsat, Options{Learn: true}); res.Found {
		t.Fatal("empty-table instance must be UNSAT")
	}

	p := NewInstance(2, 2)
	tbl := NewTable(2)
	tbl.Add([]int{0, 1})
	p.MustAddConstraint([]int{0, 1}, tbl)
	res := Solve(p, Options{Learn: true})
	if !res.Found || res.Solution[0] != 0 || res.Solution[1] != 1 {
		t.Fatalf("forced instance: %+v", res)
	}
	if res.Stats.Strategy != "Learn+DomWdeg" {
		t.Fatalf("strategy label %q", res.Stats.Strategy)
	}
}

// TestDurationCoversSetup pins that a bitset solve's Stats.Duration, which
// the csp.solve.ns histogram and the portfolio's lane reports read, counts
// the engine's set-up. The first constraint's table is empty, so root
// propagation fails at its first revision and the solve is nearly all
// set-up: compiling the supports of 300 tables of 2,500 rows. A clock
// started after set-up reports a few microseconds of a multi-millisecond
// call.
func TestDurationCoversSetup(t *testing.T) {
	const n, d = 25, 50
	p := NewInstance(n, d)
	p.MustAddConstraint([]int{0, 1}, NewTable(2))
	full := NewTable(2)
	for a := 0; a < d; a++ {
		for b := 0; b < d; b++ {
			full.Add([]int{a, b})
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.MustAddConstraint([]int{i, j}, full)
		}
	}
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		solve func() Stats
	}{
		{"SolveCtx/MAC", func() Stats { return SolveCtx(ctx, p, Options{}).Stats }},
		{"SolveCtx/Learn", func() Stats { return SolveCtx(ctx, p, Options{Learn: true}).Stats }},
		{"SolveAllCtx", func() Stats {
			_, st := SolveAllCtx(ctx, p, Options{}, 0, func([]int) bool { return true })
			return st
		}},
	} {
		start := time.Now()
		st := c.solve()
		wall := time.Since(start)
		if st.Duration < wall/2 {
			t.Errorf("%s: Stats.Duration %v of a %v call, want the set-up counted", c.name, st.Duration, wall)
		}
	}
}
