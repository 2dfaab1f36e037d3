// Package hypergraph implements query hypergraphs and the structural
// machinery Section 6 of the paper surveys beyond treewidth: α-acyclicity
// via GYO reduction, join trees, Yannakakis' semijoin algorithm for acyclic
// joins, and (generalized) hypertree decompositions with a small-k width
// search — "the most powerful way to obtain tractability results for
// constraint satisfaction using the topology of the input instance".
package hypergraph

import (
	"fmt"
	"slices"

	"csdb/internal/cq"
	"csdb/internal/csp"
)

// Hypergraph has vertices 0..N-1 and hyperedges given as sorted vertex sets.
type Hypergraph struct {
	N     int
	Edges [][]int
	// VertexNames optionally labels vertices (e.g. CQ variable names).
	VertexNames []string
}

// New creates a hypergraph with n vertices and no edges.
func New(n int) *Hypergraph { return &Hypergraph{N: n} }

// AddEdge appends a hyperedge (deduplicated, sorted).
func (h *Hypergraph) AddEdge(vs ...int) error {
	if err := h.checkEdge(vs); err != nil {
		return err
	}
	h.Edges = append(h.Edges, sortedSet(slices.Clone(vs)))
	return nil
}

func (h *Hypergraph) checkEdge(vs []int) error {
	if len(vs) == 0 {
		return fmt.Errorf("hypergraph: empty hyperedge")
	}
	for _, v := range vs {
		if v < 0 || v >= h.N {
			return fmt.Errorf("hypergraph: vertex %d outside [0,%d)", v, h.N)
		}
	}
	return nil
}

// sortedSet sorts vs in place and drops repeats, returning the clipped set.
func sortedSet(vs []int) []int {
	slices.Sort(vs)
	return slices.Clip(slices.Compact(vs))
}

// MustAddEdge is AddEdge but panics on error.
func (h *Hypergraph) MustAddEdge(vs ...int) {
	if err := h.AddEdge(vs...); err != nil {
		panic(err)
	}
}

// FromQuery builds the hypergraph of a conjunctive query: vertices are the
// query's variables, one hyperedge per subgoal. The returned variable index
// maps names to vertices.
func FromQuery(q *cq.Query) (*Hypergraph, map[string]int, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, err
	}
	vars := q.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	h := New(len(vars))
	h.VertexNames = vars
	for _, a := range q.Body {
		vs := make([]int, len(a.Args))
		for i, v := range a.Args {
			vs[i] = idx[v]
		}
		if err := h.AddEdge(vs...); err != nil {
			return nil, nil, err
		}
	}
	return h, idx, nil
}

// FromInstance builds the constraint hypergraph of a CSP instance: vertices
// are variables, one hyperedge per constraint scope. The edges are carved
// from one array.
func FromInstance(p *csp.Instance) *Hypergraph {
	h := New(p.Vars)
	total := 0
	for _, con := range p.Constraints {
		total += len(con.Scope)
	}
	arena := make([]int, 0, total)
	h.Edges = make([][]int, 0, len(p.Constraints))
	for _, con := range p.Constraints {
		if err := h.checkEdge(con.Scope); err != nil {
			panic(err)
		}
		start := len(arena)
		e := sortedSet(append(arena, con.Scope...)[start:])
		arena = arena[:start+len(e)]
		h.Edges = append(h.Edges, e)
	}
	return h
}

// JoinTree is a join tree over the hyperedges of a hypergraph: Parent[i] is
// the parent edge index of edge i (-1 for the root), with the connectedness
// property: for any two edges, their shared vertices appear in every edge on
// the tree path between them.
type JoinTree struct {
	Parent []int
	Root   int
}

// GYO runs the Graham–Yu–Özsoyoğlu reduction and reports whether the
// hypergraph is α-acyclic; when it is, a join tree over the original edge
// indices is returned.
//
// The reduction repeatedly (a) removes vertices occurring in exactly one
// edge ("ears' private vertices") and (b) removes an edge that becomes a
// subset of another edge, attaching it to that edge in the join tree. The
// hypergraph is acyclic iff everything reduces away.
//
// Each pass of (b) visits edges in ascending index order and attaches an
// edge to the lowest-indexed live edge containing it, so the join tree is
// a function of the edge order. The kernel is flat: a removed vertex is
// gone from every live edge at once (it was in only one), so an edge's live
// set is its sorted vertex list minus the gone vertices; per-vertex live
// occurrence counts find the private vertices; and a superset of an edge
// must contain each of its live vertices, so only the edges holding its
// rarest one are tried. After the first pass only edges that lost a vertex
// are tried again: sets only shrink, so an edge that had no superset still
// has none.
func (h *Hypergraph) GYO() (acyclic bool, jt *JoinTree) {
	m := len(h.Edges)
	if m == 0 {
		return true, &JoinTree{Parent: nil, Root: -1}
	}
	// occ[occOff[v]:occOff[v+1]] lists the edges containing v, ascending;
	// cnt[v] counts the live ones.
	occOff := make([]int32, h.N+1)
	cnt := make([]int32, h.N)
	for _, e := range h.Edges {
		for _, v := range e {
			occOff[v+1]++
		}
	}
	for v := 0; v < h.N; v++ {
		occOff[v+1] += occOff[v]
	}
	occ := make([]int32, occOff[h.N])
	for i, e := range h.Edges {
		for _, v := range e {
			occ[occOff[v]+cnt[v]] = int32(i)
			cnt[v]++
		}
	}
	gone := make([]bool, h.N)
	alive := make([]bool, m)
	size := make([]int32, m) // live vertices per edge
	parent := make([]int, m)
	tried := make([]int32, m) // the edges (b) tries next, ascending
	for i, e := range h.Edges {
		alive[i] = true
		size[i] = int32(len(e))
		parent[i] = -1
		tried[i] = int32(i)
	}
	var private []int32 // vertices whose live count dropped to one
	for v, c := range cnt {
		if c == 1 {
			private = append(private, int32(v))
		}
	}
	aliveCount, lowest := m, 0

	// superset returns the lowest-indexed live edge j != i whose live set
	// contains i's, or -1.
	superset := func(i int) int {
		e, x := h.Edges[i], -1
		for _, v := range e {
			if !gone[v] && (x < 0 || cnt[v] < cnt[x]) {
				x = v
			}
		}
		if x < 0 { // empty: any live edge contains it
			for !alive[lowest] {
				lowest++
			}
			for j := lowest; j < m; j++ {
				if alive[j] && j != i {
					return j
				}
			}
			return -1
		}
		if cnt[x] == 1 {
			return -1 // x is in no other live edge
		}
	candidates:
		for _, j32 := range occ[occOff[x]:occOff[x+1]] {
			j := int(j32)
			if j == i || !alive[j] || size[j] < size[i] {
				continue
			}
			f, q := h.Edges[j], 0
			for _, v := range e {
				if gone[v] {
					continue
				}
				for q < len(f) && f[q] < v {
					q++
				}
				if q == len(f) || f[q] != v {
					continue candidates
				}
			}
			return j
		}
		return -1
	}

	for {
		changed := false
		// (a) Remove vertices in exactly one live edge.
		for _, v := range private {
			if gone[v] || cnt[v] != 1 {
				continue
			}
			gone[v], cnt[v], changed = true, 0, true
			for _, i := range occ[occOff[v]:occOff[v+1]] {
				if alive[i] {
					size[i]--
					tried = append(tried, i)
					break
				}
			}
		}
		private = private[:0]
		// (b) Remove an edge contained in another live edge.
		slices.Sort(tried)
		for _, i32 := range slices.Compact(tried) {
			i := int(i32)
			if !alive[i] {
				continue
			}
			j := superset(i)
			if j < 0 {
				continue
			}
			alive[i], parent[i] = false, j
			aliveCount--
			changed = true
			for _, v := range h.Edges[i] {
				if !gone[v] {
					if cnt[v]--; cnt[v] == 1 {
						private = append(private, int32(v))
					}
				}
			}
		}
		tried = tried[:0]
		if aliveCount == 1 {
			// Acyclic: the surviving edge is the root. The recorded parents
			// point at edges that were alive at removal time, which may
			// themselves have been removed later — that is fine, the
			// pointers still form a tree rooted at root.
			return true, &JoinTree{Parent: parent, Root: slices.Index(alive, true)}
		}
		if !changed {
			return false, nil
		}
	}
}

// IsAcyclic reports α-acyclicity.
func (h *Hypergraph) IsAcyclic() bool {
	ac, _ := h.GYO()
	return ac
}
