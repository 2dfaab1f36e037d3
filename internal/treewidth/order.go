package treewidth

import (
	"slices"

	"csdb/internal/graph"
)

// Heuristic selects an elimination-ordering heuristic.
type Heuristic int

const (
	// MinFill eliminates the vertex adding the fewest fill edges. Usually
	// the best widths of the three.
	MinFill Heuristic = iota
	// MinDegree eliminates the vertex of minimum degree.
	MinDegree
	// MCS orders vertices by maximum cardinality search and eliminates in
	// reverse.
	MCS
)

func (h Heuristic) String() string {
	switch h {
	case MinFill:
		return "min-fill"
	case MinDegree:
		return "min-degree"
	case MCS:
		return "mcs"
	}
	return "unknown"
}

// kernel is the one elimination kernel behind every ordering, width and
// decomposition in this package. A vertex's adjacency is the graph's own
// sorted list until a fill edge is inserted into it (or, once per run, it
// holds a loop, which is irrelevant for treewidth); only then is it copied
// into the kernel's lists. An eliminated vertex is not deleted from its
// neighbours' lists; it is marked dead and skipped, and live degrees are
// counted apart. Memory is O(vertices + edges + fill).
type kernel struct {
	g     *graph.Graph
	n     int
	own   []int32 // index of v's list in lists, or -1 for the graph's own
	lists [][]int
	deg   []int32 // live degree
	dead  []bool
	// score keys the vertex heap together with the vertex id (lowest id
	// first on ties): fill-in for MinFill, degree for MinDegree, minus the
	// weight for MCS.
	score []int
	heap  []int32
	hpos  []int32 // index of each vertex in heap
}

// elimRun records one elimination: the order, every vertex's neighbourhood
// at its elimination (flat), and the width, the largest neighbourhood.
type elimRun struct {
	order []int32
	nbOff []int32 // nbr[nbOff[i]:nbOff[i+1]] is order[i]'s neighbourhood
	nbr   []int
	width int
}

func newKernel(g *graph.Graph) *kernel {
	n := g.N()
	return &kernel{
		g:     g,
		n:     n,
		own:   make([]int32, n),
		deg:   make([]int32, n),
		dead:  make([]bool, n),
		score: make([]int, n),
		heap:  make([]int32, 0, n),
		hpos:  make([]int32, n),
	}
}

// adj returns v's sorted neighbour list, dead entries included.
func (k *kernel) adj(v int) []int {
	if i := k.own[v]; i >= 0 {
		return k.lists[i]
	}
	return k.g.Neighbors(v)
}

// reset restores the input graph for a fresh run.
func (k *kernel) reset() {
	k.lists = k.lists[:0]
	for v := range k.own {
		nb := k.g.Neighbors(v)
		k.own[v] = -1
		if i, loop := slices.BinarySearch(nb, v); loop {
			nb = slices.Delete(slices.Clone(nb), i, i+1)
			k.own[v] = int32(len(k.lists))
			k.lists = append(k.lists, nb)
		}
		k.deg[v] = int32(len(nb))
		k.dead[v] = false
	}
}

// begin resets the kernel and rec for a run.
func (k *kernel) begin(rec *elimRun) {
	k.reset()
	if rec.order == nil {
		rec.order = make([]int32, 0, k.n)
		rec.nbOff = make([]int32, 0, k.n+1)
	}
	*rec = elimRun{order: rec.order[:0], nbOff: append(rec.nbOff[:0], 0), nbr: rec.nbr[:0]}
}

// run eliminates the graph with heuristic h into rec, abandoning the run
// (false) as soon as a vertex has more than limit live neighbours when it
// is eliminated.
func (k *kernel) run(h Heuristic, limit int, rec *elimRun) bool {
	if h == MCS {
		return k.eliminate(k.mcsOrder(), limit, rec)
	}
	k.begin(rec)
	if h == MinFill {
		k.fillIns()
	} else {
		for v := range k.score {
			k.score[v] = int(k.deg[v])
		}
	}
	k.heapInit()
	for len(k.heap) > 0 {
		v := int(k.pop())
		nb, ok := k.step(v, limit, rec)
		if !ok {
			return false
		}
		k.removeAndFill(v, nb, h == MinFill)
	}
	return true
}

// eliminate eliminates the graph in the given order into rec, with run's
// limit.
func (k *kernel) eliminate(order []int, limit int, rec *elimRun) bool {
	k.begin(rec)
	for _, v := range order {
		nb, ok := k.step(v, limit, rec)
		if !ok {
			return false
		}
		k.removeAndFill(v, nb, false)
	}
	return true
}

// step records v's live neighbourhood in rec and returns it (a view of
// rec), or reports false when it has more than limit vertices.
func (k *kernel) step(v, limit int, rec *elimRun) ([]int, bool) {
	if int(k.deg[v]) > limit {
		return nil, false
	}
	start := len(rec.nbr)
	for _, u := range k.adj(v) {
		if !k.dead[u] {
			rec.nbr = append(rec.nbr, u)
		}
	}
	rec.order = append(rec.order, int32(v))
	rec.nbOff = append(rec.nbOff, int32(len(rec.nbr)))
	rec.width = max(rec.width, int(k.deg[v]))
	return rec.nbr[start:], true
}

// removeAndFill eliminates v, whose live neighbourhood is nb: v dies and
// nb becomes a clique. It keeps every affected score exact (fill-in with
// fill set, live degree otherwise), restoring heap order after each change.
func (k *kernel) removeAndFill(v int, nb []int, fill bool) {
	k.dead[v] = true
	for _, a := range nb {
		k.deg[a]--
		if !fill {
			k.addScore(a, -1)
			continue
		}
		// The pairs {v, x} of a's neighbourhood leave it; those with x not
		// adjacent to v were missing edges.
		k.addScore(a, k.common(a, nb, false)-int(k.deg[a]))
	}
	for i, a := range nb {
		for _, b := range nb[i+1:] {
			if k.adjacent(a, b) {
				continue
			}
			if fill {
				// b joins a's neighbourhood (and a joins b's), missing an
				// edge to every neighbour they do not share; each common
				// neighbour loses the missing pair {a, b}.
				common := k.common(a, k.adj(b), true)
				k.addScore(a, int(k.deg[a])-common)
				k.addScore(b, int(k.deg[b])-common)
			} else {
				k.addScore(a, 1)
				k.addScore(b, 1)
			}
			k.link(a, b)
			k.link(b, a)
		}
	}
}

// addScore changes v's score by d and restores heap order.
func (k *kernel) addScore(v, d int) {
	k.score[v] += d
	k.fix(v)
}

// adjacent reports whether the live vertices a and b are adjacent.
func (k *kernel) adjacent(a, b int) bool {
	r, s := k.adj(a), k.adj(b)
	if len(r) > len(s) {
		r, s, b = s, r, a
	}
	_, found := slices.BinarySearch(r, b)
	return found
}

// common counts the live vertices of the sorted list s adjacent to a. With
// decrement set it also takes one off each one's fill-in score. It merges
// the two lists, or binary-searches the shorter in the longer when their
// lengths differ widely, so a hub costs no more than its small neighbours.
func (k *kernel) common(a int, s []int, decrement bool) int {
	r, n := k.adj(a), 0
	if len(r) > len(s) {
		r, s = s, r
	}
	galloping := 8*len(r) < len(s)
	j := 0
	for _, w := range r {
		if k.dead[w] {
			continue
		}
		if galloping {
			i, found := slices.BinarySearch(s[j:], w)
			if j += i; !found {
				continue
			}
		} else {
			for j < len(s) && s[j] < w {
				j++
			}
			if j == len(s) {
				break
			}
			if s[j] != w {
				continue
			}
		}
		n++
		if decrement {
			k.addScore(w, -1)
		}
	}
	return n
}

// fillIns scores every vertex with its fill-in, the missing edges among
// its neighbours: d(d-1)/2 minus the edges inside the neighbourhood, each
// counted once per endpoint. Every edge's common neighbours are counted
// once and credited to both ends.
func (k *kernel) fillIns() {
	clear(k.score)
	for v := range k.score {
		nb := k.adj(v)
		above, _ := slices.BinarySearch(nb, v)
		for _, a := range nb[above:] {
			c := k.common(a, nb, false)
			k.score[v] += c
			k.score[a] += c
		}
	}
	for v, inside := range k.score {
		d := int(k.deg[v])
		k.score[v] = d*(d-1)/2 - inside/2
	}
}

// link inserts b into a's sorted list. A full list (always so for the
// graph's own, which it clips) is first copied out without its dead
// entries.
func (k *kernel) link(a, b int) {
	s := k.adj(a)
	if len(s) == cap(s) {
		t := make([]int, 0, 2*int(k.deg[a])+2)
		for _, x := range s {
			if !k.dead[x] {
				t = append(t, x)
			}
		}
		s = t
	}
	i, _ := slices.BinarySearch(s, b)
	s = slices.Insert(s, i, b)
	if k.own[a] < 0 {
		k.own[a] = int32(len(k.lists))
		k.lists = append(k.lists, nil)
	}
	k.lists[k.own[a]] = s
	k.deg[a]++
}

// mcsOrder runs maximum cardinality search (the unvisited vertex with the
// most visited neighbours next, lowest id first on ties) and returns the
// reverse visit order, a perfect elimination ordering on chordal graphs.
func (k *kernel) mcsOrder() []int {
	k.reset()
	clear(k.score)
	k.heapInit()
	order := make([]int, k.n)
	for i := k.n - 1; i >= 0; i-- {
		v := int(k.pop())
		order[i] = v
		k.dead[v] = true
		for _, u := range k.adj(v) {
			if !k.dead[u] {
				k.addScore(u, -1)
			}
		}
	}
	return order
}

// The vertex heap: a binary min-heap on (score, vertex id) with each
// vertex's index kept in hpos, so a changed score is restored in O(log n).

func (k *kernel) less(a, b int32) bool {
	return k.score[a] < k.score[b] || k.score[a] == k.score[b] && a < b
}

func (k *kernel) heapInit() {
	k.heap = k.heap[:0]
	for v := 0; v < k.n; v++ {
		k.heap = append(k.heap, int32(v))
		k.hpos[v] = int32(v)
	}
	for i := k.n/2 - 1; i >= 0; i-- {
		k.down(i)
	}
}

func (k *kernel) pop() int32 {
	v := k.heap[0]
	last := len(k.heap) - 1
	k.swap(0, last)
	k.heap = k.heap[:last]
	k.hpos[v] = -1
	if last > 0 {
		k.down(0)
	}
	return v
}

// fix restores heap order after v's score changed.
func (k *kernel) fix(v int) {
	if i := int(k.hpos[v]); i >= 0 {
		k.up(i)
		k.down(int(k.hpos[v]))
	}
}

func (k *kernel) swap(i, j int) {
	k.heap[i], k.heap[j] = k.heap[j], k.heap[i]
	k.hpos[k.heap[i]] = int32(i)
	k.hpos[k.heap[j]] = int32(j)
}

func (k *kernel) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !k.less(k.heap[i], k.heap[p]) {
			return
		}
		k.swap(i, p)
		i = p
	}
}

func (k *kernel) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(k.heap) {
			return
		}
		if c+1 < len(k.heap) && k.less(k.heap[c+1], k.heap[c]) {
			c++
		}
		if !k.less(k.heap[c], k.heap[i]) {
			return
		}
		k.swap(i, c)
		i = c
	}
}

// best runs MinFill, MinDegree and MCS in turn, each abandoned as soon as
// it would exceed min(limit, best width so far - 1), so the first
// heuristic reaching the smallest width wins. It reports false when none
// fits within limit.
func (k *kernel) best(limit int) (*elimRun, bool) {
	var best, cur *elimRun = nil, &elimRun{}
	for _, h := range []Heuristic{MinFill, MinDegree, MCS} {
		if limit < 0 {
			break
		}
		if k.run(h, limit, cur) {
			limit = cur.width - 1
			if best == nil {
				best, cur = cur, &elimRun{}
			} else {
				best, cur = cur, best
			}
		}
	}
	return best, best != nil
}

// decomposition builds the tree decomposition of the run by the standard
// construction: the bag of v is {v} ∪ N(v) at elimination time, and it is
// attached to the bag of the earliest-eliminated later neighbour. Isolated
// pieces are stitched to keep the bag graph a tree. Bags and tree
// adjacency are carved from two flat arrays, and the per-vertex scratch
// reuses the kernel's arrays, which are free once its runs are over.
func (k *kernel) decomposition(r *elimRun) *Decomposition {
	n := len(r.order)
	if n == 0 {
		return &Decomposition{}
	}
	pos := k.hpos
	for i, v := range r.order {
		pos[v] = int32(i)
	}
	d := &Decomposition{Bags: make([][]int, n), Adj: make([][]int, n)}
	flat := make([]int, 0, n+len(r.nbr))
	next := k.heap[:n] // the bag each bag attaches to; -1 for a root
	deg := k.deg
	clear(deg)
	var roots []int32
	for i, v32 := range r.order {
		v, nb := int(v32), r.nbr[r.nbOff[i]:r.nbOff[i+1]]
		start := len(flat)
		next[i] = -1
		placed := false
		for _, u := range nb {
			if !placed && u > v {
				flat = append(flat, v)
				placed = true
			}
			flat = append(flat, u)
			if next[i] < 0 || pos[u] < next[i] {
				next[i] = pos[u]
			}
		}
		if !placed {
			flat = append(flat, v)
		}
		d.Bags[i] = flat[start:len(flat):len(flat)]
		if next[i] >= 0 {
			deg[i]++
			deg[next[i]]++
		} else {
			roots = append(roots, int32(i))
		}
	}
	if len(roots) > 1 {
		deg[roots[0]] += int32(len(roots) - 1)
		for _, b := range roots[1:] {
			deg[b]++
		}
	}
	adj := make([]int, 2*(n-1))
	for i, dg := range deg {
		if dg > 0 {
			d.Adj[i], adj = adj[:0:dg], adj[dg:]
		}
	}
	attach := func(a, b int32) {
		d.Adj[a] = append(d.Adj[a], int(b))
		d.Adj[b] = append(d.Adj[b], int(a))
	}
	for i, b := range next {
		if b >= 0 {
			attach(int32(i), b)
		}
	}
	for _, b := range roots[1:] {
		attach(roots[0], b)
	}
	return d
}

// Ordering computes an elimination ordering of g with the given heuristic:
// MinFill and MinDegree eliminate the vertex of least score next, lowest id
// first on ties.
func Ordering(g *graph.Graph, h Heuristic) []int {
	k := newKernel(g)
	if h == MCS {
		return k.mcsOrder()
	}
	var rec elimRun
	k.run(h, k.n, &rec)
	order := make([]int, k.n)
	for i, v := range rec.order {
		order[i] = int(v)
	}
	return order
}

// WidthOfOrdering returns the width induced by eliminating g in the given
// order: the maximum neighborhood size at elimination time.
func WidthOfOrdering(g *graph.Graph, order []int) int {
	var rec elimRun
	newKernel(g).eliminate(order, g.N(), &rec)
	return rec.width
}

// FromOrdering builds a tree decomposition from an elimination ordering by
// the standard construction: the bag of v is {v} ∪ N(v) at elimination
// time, and it is attached to the bag of the earliest-eliminated later
// neighbor. Isolated pieces are stitched to keep the bag graph a tree.
func FromOrdering(g *graph.Graph, order []int) *Decomposition {
	var rec elimRun
	k := newKernel(g)
	k.eliminate(order, k.n, &rec)
	return k.decomposition(&rec)
}

// Decompose computes a tree decomposition of g with the given heuristic.
func Decompose(g *graph.Graph, h Heuristic) *Decomposition {
	var rec elimRun
	k := newKernel(g)
	k.run(h, k.n, &rec)
	return k.decomposition(&rec)
}

// DecomposeWithin looks for a decomposition of width at most budget with
// the heuristics of BestHeuristic, in the same order and with the same tie
// rule, so whenever BestHeuristic's decomposition fits the budget it is
// the one returned. Each heuristic is abandoned at the first elimination
// wider than min(budget, best width so far - 1), and only the winner's
// decomposition is built. When no heuristic fits, it returns nil, false.
// The heuristics only upper-bound the true treewidth, so false means "no
// witness found", not "treewidth exceeds budget".
func DecomposeWithin(g *graph.Graph, budget int) (*Decomposition, bool) {
	if g.N() == 0 {
		d := &Decomposition{}
		if d.Width() > budget {
			return nil, false
		}
		return d, true
	}
	k := newKernel(g)
	best, ok := k.best(budget)
	if !ok {
		return nil, false
	}
	return k.decomposition(best), true
}

// BestHeuristic runs all three heuristics and returns the decomposition of
// smallest width (the first heuristic to reach it, in the order MinFill,
// MinDegree, MCS).
func BestHeuristic(g *graph.Graph) *Decomposition {
	if g.N() == 0 {
		return &Decomposition{}
	}
	k := newKernel(g)
	best, _ := k.best(k.n)
	return k.decomposition(best)
}
