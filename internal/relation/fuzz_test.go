package relation

import (
	"testing"
)

// decodeFuzzRel consumes bytes from *data to build one small relation over a
// wrapping window of the attribute pool, so fuzzed pairs share 0..2
// attributes depending on the offsets the fuzzer picks.
func decodeFuzzRel(data *[]byte) *Relation {
	next := func() int {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return int(b)
	}
	pool := []string{"a", "b", "c", "d", "e"}
	k := 1 + next()%3
	off := next() % len(pool)
	attrs := make([]string, k)
	for i := range attrs {
		attrs[i] = pool[(off+i)%len(pool)]
	}
	r := MustNew(attrs...)
	rows := next() % 8
	for i := 0; i < rows; i++ {
		t := make(Tuple, k)
		for j := range t {
			t[j] = next() % 4
		}
		r.MustAdd(t)
	}
	return r
}

// FuzzJoinDifferential decodes two relations from the fuzz input and checks
// the integer-coded hash kernel against the string-keyed reference
// implementation (naive.go) for Join, and the join-tree engine's full
// reducer over the two-node tree r → s against the reference semijoins
// r ⋉ s and s ⋉ r: same schema, same row multiset. This is the fuzz-driven extension of diff_test.go's fixed-seed
// differential suite.
func FuzzJoinDifferential(f *testing.F) {
	f.Add([]byte{2, 0, 2, 0, 1, 1, 0, 2, 1, 3, 1, 1, 2})
	f.Add([]byte{1, 0, 3, 1, 2, 3})
	f.Add([]byte{3, 2, 2, 3, 0, 1, 2, 2, 2, 1, 0, 0, 3, 3, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := decodeFuzzRel(&data)
		s := decodeFuzzRel(&data)
		nr, ns := naiveFrom(r), naiveFrom(s)

		fuzzSameRows(t, "join", r.Join(s), nr.join(ns))
		rs, sr := reduceSemijoin(t, 4, r, s)
		fuzzSameRows(t, "reduce child", rs, nr.semijoin(ns))
		fuzzSameRows(t, "reduce parent", sr, ns.semijoin(nr))
	})
}

// fuzzSameRows is sameRows with t.Errorf reporting (fuzz failures should
// show all divergences for the input, not stop at the first).
func fuzzSameRows(t *testing.T, what string, got *Relation, want *naiveRel) {
	t.Helper()
	if len(got.Attrs()) != len(want.attrs) {
		t.Errorf("%s: schema %v vs reference %v", what, got.Attrs(), want.attrs)
		return
	}
	for i, a := range got.Attrs() {
		if want.attrs[i] != a {
			t.Errorf("%s: schema %v vs reference %v", what, got.Attrs(), want.attrs)
			return
		}
	}
	if got.Len() != len(want.tuples) {
		t.Errorf("%s: %d rows vs reference %d", what, got.Len(), len(want.tuples))
		return
	}
	gs := got.SortedTuples()
	ws := want.sortedRows()
	for i := range gs {
		if !gs[i].Equal(Tuple(ws[i])) {
			t.Errorf("%s: row %d = %v vs reference %v", what, i, gs[i], ws[i])
			return
		}
	}
}
