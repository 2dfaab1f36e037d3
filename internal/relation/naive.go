package relation

import (
	"sort"
	"strconv"
)

// Reference kernel: the string-keyed, per-tuple-allocating implementation
// that seeded this package, retained verbatim in spirit as an independent
// oracle for the integer-hash kernel. It shares nothing with the fast path —
// membership and join matching go through comma-separated string keys, rows
// are individual []int allocations — so differential tests (diff_test.go)
// that compare the two catch hashing, indexing, arena and parallelism bugs.
// It is test-only by convention, but lives outside _test.go files so the
// oracle itself is part of the reviewed, vetted build.

// naiveRel is the reference relation representation.
type naiveRel struct {
	attrs  []string
	pos    map[string]int
	tuples [][]int
	index  map[string]struct{}
}

func newNaive(attrs []string) *naiveRel {
	pos := make(map[string]int, len(attrs))
	for i, a := range attrs {
		pos[a] = i
	}
	return &naiveRel{
		attrs: append([]string(nil), attrs...),
		pos:   pos,
		index: make(map[string]struct{}),
	}
}

// naiveFrom snapshots a fast-kernel relation into the reference
// representation, copying every row.
func naiveFrom(r *Relation) *naiveRel {
	n := newNaive(r.Attrs())
	for _, t := range r.Tuples() {
		n.add(t)
	}
	return n
}

func naiveKey(t []int) string {
	b := make([]byte, 0, len(t)*3)
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

func naiveJoinKey(t []int, cols []int) string {
	b := make([]byte, 0, len(cols)*3)
	for i, j := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t[j]), 10)
	}
	return string(b)
}

func (r *naiveRel) add(t []int) {
	k := naiveKey(t)
	if _, dup := r.index[k]; dup {
		return
	}
	r.index[k] = struct{}{}
	c := make([]int, len(t))
	copy(c, t)
	r.tuples = append(r.tuples, c)
}

func (r *naiveRel) hasAttr(a string) bool {
	_, ok := r.pos[a]
	return ok
}

func naiveShared(r, s *naiveRel) (common, sOnly []string) {
	for _, a := range r.attrs {
		if s.hasAttr(a) {
			common = append(common, a)
		}
	}
	for _, a := range s.attrs {
		if !r.hasAttr(a) {
			sOnly = append(sOnly, a)
		}
	}
	return common, sOnly
}

// join is the seed hash join: build a string-keyed map over s's shared
// columns, probe with r, emit concatenated rows through the dedup index.
func (r *naiveRel) join(s *naiveRel) *naiveRel {
	common, sOnly := naiveShared(r, s)
	outAttrs := append(append([]string(nil), r.attrs...), sOnly...)
	out := newNaive(outAttrs)

	sCommonPos := make([]int, len(common))
	for i, a := range common {
		sCommonPos[i] = s.pos[a]
	}
	sOnlyPos := make([]int, len(sOnly))
	for i, a := range sOnly {
		sOnlyPos[i] = s.pos[a]
	}
	build := make(map[string][][]int, len(s.tuples))
	for _, t := range s.tuples {
		k := naiveJoinKey(t, sCommonPos)
		build[k] = append(build[k], t)
	}
	rCommonPos := make([]int, len(common))
	for i, a := range common {
		rCommonPos[i] = r.pos[a]
	}
	for _, t := range r.tuples {
		for _, u := range build[naiveJoinKey(t, rCommonPos)] {
			row := make([]int, 0, len(outAttrs))
			row = append(row, t...)
			for _, j := range sOnlyPos {
				row = append(row, u[j])
			}
			out.add(row)
		}
	}
	return out
}

// semijoin is the seed semijoin: a string-keyed membership set over s's
// shared columns.
func (r *naiveRel) semijoin(s *naiveRel) *naiveRel {
	common, _ := naiveShared(r, s)
	if len(common) == 0 {
		out := newNaive(r.attrs)
		if len(s.tuples) > 0 {
			for _, t := range r.tuples {
				out.add(t)
			}
		}
		return out
	}
	sPos := make([]int, len(common))
	for i, a := range common {
		sPos[i] = s.pos[a]
	}
	seen := make(map[string]struct{}, len(s.tuples))
	for _, t := range s.tuples {
		seen[naiveJoinKey(t, sPos)] = struct{}{}
	}
	rPos := make([]int, len(common))
	for i, a := range common {
		rPos[i] = r.pos[a]
	}
	out := newNaive(r.attrs)
	for _, t := range r.tuples {
		if _, ok := seen[naiveJoinKey(t, rPos)]; ok {
			out.add(t)
		}
	}
	return out
}

// project projects onto attrs (which must exist) with string-keyed dedup.
func (r *naiveRel) project(attrs []string) *naiveRel {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		cols[i] = r.pos[a]
	}
	out := newNaive(attrs)
	for _, t := range r.tuples {
		p := make([]int, len(cols))
		for i, j := range cols {
			p[i] = t[j]
		}
		out.add(p)
	}
	return out
}

// naiveJoinAll left-folds the inputs in order (the result of a multiway
// natural join is order-independent, which is exactly what the
// differential tests verify against the engine's own join order).
func naiveJoinAll(rels []*naiveRel) *naiveRel {
	if len(rels) == 0 {
		out := newNaive(nil)
		out.add([]int{})
		return out
	}
	acc := rels[0]
	for _, r := range rels[1:] {
		acc = acc.join(r)
	}
	return acc
}

// sortedRows returns the rows in lexicographic order for comparison.
func (r *naiveRel) sortedRows() [][]int {
	out := make([][]int, len(r.tuples))
	copy(out, r.tuples)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}
