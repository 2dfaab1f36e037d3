// Package graph implements simple undirected graphs with the handful of
// polynomial-time algorithms the paper's dichotomy results lean on:
// bipartiteness / 2-coloring (the tractable side of the Hell–Nešetřil
// theorem, Section 3), odd-cycle detection (the 4-Datalog example of
// Section 4), and connected components.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..N-1. Self-loops are
// permitted (a loop makes every H-coloring problem trivial) but parallel
// edges are not. Each adjacency list is kept sorted ascending, so every
// traversal, and every generator built on one, is reproducible.
type Graph struct {
	n   int
	adj [][]int
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// FromEdges returns the graph on n vertices with the given edges; repeats
// are dropped. Its adjacency lists are carved from one array, so building
// it costs the same few allocations however many edges it has.
func FromEdges(n int, edges [][2]int) *Graph {
	g := New(n)
	off := make([]int32, n+1)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) outside [0,%d)", u, v, n))
		}
		off[u+1]++
		if u != v {
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	arena := make([]int, off[n])
	for v := range g.adj {
		g.adj[v] = arena[off[v]:off[v]]
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		g.adj[u] = append(g.adj[u], v)
		if u != v {
			g.adj[v] = append(g.adj[v], u)
		}
	}
	for v, nb := range g.adj {
		slices.Sort(nb)
		g.adj[v] = slices.Clip(slices.Compact(nb))
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge {u,v}. It panics if a vertex is out of
// range, since that is a programming error rather than an input condition.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) outside [0,%d)", u, v, g.n))
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	if u != v {
		g.adj[v] = insertSorted(g.adj[v], u)
	}
}

// insertSorted adds x to the ascending list s unless it is already there.
func insertSorted(s []int, x int) []int {
	i, found := slices.BinarySearch(s, x)
	if found {
		return s
	}
	return slices.Insert(s, i, x)
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	_, found := slices.BinarySearch(g.adj[u], v)
	return found
}

// HasLoop reports whether any vertex has a self-loop.
func (g *Graph) HasLoop() bool {
	for v := 0; v < g.n; v++ {
		if g.HasEdge(v, v) {
			return true
		}
	}
	return false
}

// Degree returns the degree of v (loops count once).
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the neighbors of v in ascending order. The slice is the
// graph's own list: callers must not modify it, and it is invalidated by
// the next AddEdge touching v.
func (g *Graph) Neighbors(v int) []int { return slices.Clip(g.adj[v]) }

// NumEdges returns the number of undirected edges (loops count once).
func (g *Graph) NumEdges() int {
	total := 0
	for v, nb := range g.adj {
		total += len(nb) - sort.SearchInts(nb, v)
	}
	return total
}

// Edges returns all undirected edges as (u,v) pairs with u <= v, in
// ascending order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.NumEdges())
	for v := 0; v < g.n; v++ {
		nb := g.adj[v]
		for _, u := range nb[sort.SearchInts(nb, v):] {
			out = append(out, [2]int{v, u})
		}
	}
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for v, nb := range g.adj {
		c.adj[v] = slices.Clone(nb)
	}
	return c
}

// TwoColor attempts to 2-color the graph by breadth-first search. It returns
// the coloring (values 0/1) and true on success, or nil and false when the
// graph has an odd cycle (or a loop).
func (g *Graph) TwoColor() ([]int, bool) {
	color := make([]int, g.n)
	for i := range color {
		color[i] = -1
	}
	queue := make([]int, 0, g.n)
	for start := 0; start < g.n; start++ {
		if color[start] >= 0 {
			continue
		}
		color[start] = 0
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.adj[v] {
				if u == v {
					return nil, false // loop
				}
				if color[u] < 0 {
					color[u] = 1 - color[v]
					queue = append(queue, u)
				} else if color[u] == color[v] {
					return nil, false
				}
			}
		}
	}
	return color, true
}

// IsBipartite reports whether the graph is 2-colorable.
func (g *Graph) IsBipartite() bool {
	_, ok := g.TwoColor()
	return ok
}

// HasOddCycle reports whether the graph contains an odd cycle; by König's
// characterization this is exactly non-bipartiteness.
func (g *Graph) HasOddCycle() bool { return !g.IsBipartite() }

// Components returns the connected components as vertex lists.
func (g *Graph) Components() [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	for start := 0; start < g.n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := len(out)
		comp[start] = id
		stack := []int{start}
		var members []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, v)
			for _, u := range g.adj[v] {
				if comp[u] < 0 {
					comp[u] = id
					stack = append(stack, u)
				}
			}
		}
		out = append(out, members)
	}
	return out
}

// --- Generators ---

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// Path returns the path with n vertices.
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// Clique returns K_n.
func Clique(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// CompleteBipartite returns K_{m,n}.
func CompleteBipartite(m, n int) *Graph {
	g := New(m + n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g.AddEdge(i, m+j)
		}
	}
	return g
}

// Petersen returns the Petersen graph: 3-chromatic, girth 5 — a classic
// 3-coloring example.
func Petersen() *Graph {
	g := New(10)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)     // outer 5-cycle
		g.AddEdge(i, i+5)         // spokes
		g.AddEdge(i+5, (i+2)%5+5) // inner pentagram
	}
	return g
}
