// Package treewidth implements tree decompositions of graphs and relational
// structures (Section 6 of the paper): validation of the three decomposition
// properties, width computation, elimination-ordering heuristics
// (min-degree, min-fill, maximum-cardinality search), exact treewidth by
// branch-and-bound for small graphs, the dynamic-programming CSP solver
// behind Theorem 6.2 (CSP(A(k), F) is solvable in polynomial time), and the
// construction of the (k+1)-variable existential-positive formula φ_A of
// Proposition 6.1.
//
// The paper cites Bodlaender's linear-time recognition algorithm for fixed
// k; as in every practical treewidth system, we substitute exact
// branch-and-bound (small graphs) plus standard heuristics, and generate
// bounded-width inputs as partial k-trees so the width is known by
// construction (see DESIGN.md).
package treewidth

import (
	"fmt"

	"csdb/internal/graph"
)

// Decomposition is a tree decomposition: a tree over bag indices, each bag a
// set of vertices of the decomposed graph.
type Decomposition struct {
	Bags [][]int // Bags[i] is sorted ascending
	Adj  [][]int // tree adjacency between bag indices
}

// NumBags returns the number of bags.
func (d *Decomposition) NumBags() int { return len(d.Bags) }

// Width returns the width of the decomposition: max bag size minus one.
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// Validate checks that d is a tree decomposition of g:
//  1. every vertex of g occurs in some bag;
//  2. every edge of g is contained in some bag;
//  3. for every vertex, the bags containing it induce a subtree
//     (connectedness);
//
// and that the bag graph is in fact a tree (connected and acyclic).
func (d *Decomposition) Validate(g *graph.Graph) error {
	nb := len(d.Bags)
	if nb == 0 {
		if g.N() == 0 {
			return nil
		}
		return fmt.Errorf("treewidth: no bags for a nonempty graph")
	}
	if len(d.Adj) != nb {
		return fmt.Errorf("treewidth: Adj has %d entries for %d bags", len(d.Adj), nb)
	}
	// Tree check: connected with nb-1 undirected edges.
	edgeCount := 0
	for i, ns := range d.Adj {
		for _, j := range ns {
			if j < 0 || j >= nb {
				return fmt.Errorf("treewidth: bag edge to out-of-range bag %d", j)
			}
			if j == i {
				return fmt.Errorf("treewidth: self-loop at bag %d", i)
			}
			edgeCount++
		}
	}
	if edgeCount%2 != 0 {
		return fmt.Errorf("treewidth: asymmetric bag adjacency")
	}
	edgeCount /= 2
	if edgeCount != nb-1 {
		return fmt.Errorf("treewidth: bag graph has %d edges, a tree on %d bags needs %d", edgeCount, nb, nb-1)
	}
	visited := make([]bool, nb)
	stack := []int{0}
	visited[0] = true
	seen := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range d.Adj[v] {
			if !visited[u] {
				visited[u] = true
				seen++
				stack = append(stack, u)
			}
		}
	}
	if seen != nb {
		return fmt.Errorf("treewidth: bag graph is disconnected")
	}

	// Property 1: coverage of vertices.
	inSomeBag := make([]bool, g.N())
	for bi, b := range d.Bags {
		if len(b) == 0 {
			return fmt.Errorf("treewidth: empty bag %d", bi)
		}
		for _, v := range b {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("treewidth: bag %d contains out-of-range vertex %d", bi, v)
			}
			inSomeBag[v] = true
		}
	}
	for v := 0; v < g.N(); v++ {
		if !inSomeBag[v] {
			return fmt.Errorf("treewidth: vertex %d is in no bag", v)
		}
	}

	// Property 2: coverage of edges.
	bagSets := make([]map[int]bool, nb)
	for i, b := range d.Bags {
		bagSets[i] = make(map[int]bool, len(b))
		for _, v := range b {
			bagSets[i][v] = true
		}
	}
	for _, e := range g.Edges() {
		ok := false
		for i := range d.Bags {
			if bagSets[i][e[0]] && bagSets[i][e[1]] {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("treewidth: edge (%d,%d) is in no bag", e[0], e[1])
		}
	}

	// Property 3: connectedness of each vertex's bags.
	for v := 0; v < g.N(); v++ {
		var start int = -1
		count := 0
		for i := range d.Bags {
			if bagSets[i][v] {
				count++
				if start < 0 {
					start = i
				}
			}
		}
		if count <= 1 {
			continue
		}
		// BFS restricted to bags containing v.
		vis := make([]bool, nb)
		vis[start] = true
		reached := 1
		st := []int{start}
		for len(st) > 0 {
			x := st[len(st)-1]
			st = st[:len(st)-1]
			for _, y := range d.Adj[x] {
				if !vis[y] && bagSets[y][v] {
					vis[y] = true
					reached++
					st = append(st, y)
				}
			}
		}
		if reached != count {
			return fmt.Errorf("treewidth: bags containing vertex %d are not connected", v)
		}
	}
	return nil
}

// BagContaining returns the index of some bag containing all the given
// vertices, or -1. Every clique of g lies within some bag of any valid tree
// decomposition, so for constraint scopes this always succeeds.
func (d *Decomposition) BagContaining(vs []int) int {
bags:
	for i, b := range d.Bags {
		set := make(map[int]bool, len(b))
		for _, v := range b {
			set[v] = true
		}
		for _, v := range vs {
			if !set[v] {
				continue bags
			}
		}
		return i
	}
	return -1
}

// Rooted returns parent pointers and a bottom-up ordering of the bags with
// the given root.
func (d *Decomposition) Rooted(root int) (parent []int, order []int) {
	nb := len(d.Bags)
	parent = make([]int, nb)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[root] = -1
	queue := []int{root}
	var bfs []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		bfs = append(bfs, v)
		for _, u := range d.Adj[v] {
			if parent[u] == -2 {
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	// Bottom-up order: reverse BFS.
	order = make([]int, len(bfs))
	for i, v := range bfs {
		order[len(bfs)-1-i] = v
	}
	return parent, order
}

// TrivialDecomposition returns the single-bag decomposition (width n-1).
func TrivialDecomposition(n int) *Decomposition {
	bag := make([]int, n)
	for i := range bag {
		bag[i] = i
	}
	return &Decomposition{Bags: [][]int{bag}, Adj: [][]int{nil}}
}
