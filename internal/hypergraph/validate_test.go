package hypergraph

import (
	"fmt"
	"sort"
)

// The join-tree check the tests hold GYO to. No solver re-validates the
// join tree its classifier built; the tests do, here.

// ValidateJoinTree checks the join-tree connectedness property against the
// hypergraph: for every vertex, the edges containing it form a connected
// subtree.
func (h *Hypergraph) ValidateJoinTree(jt *JoinTree) error {
	m := len(h.Edges)
	if m == 0 {
		return nil
	}
	if len(jt.Parent) != m {
		return fmt.Errorf("hypergraph: join tree over %d edges for %d hyperedges", len(jt.Parent), m)
	}
	if jt.Root < 0 || jt.Root >= m || jt.Parent[jt.Root] != -1 {
		return fmt.Errorf("hypergraph: bad join tree root")
	}
	// Check tree-ness: every edge reaches the root.
	for i := 0; i < m; i++ {
		seen := make(map[int]bool)
		x := i
		for x != jt.Root {
			if x < 0 || x >= m || seen[x] {
				return fmt.Errorf("hypergraph: join tree cycle or dangling parent at edge %d", i)
			}
			seen[x] = true
			x = jt.Parent[x]
		}
	}
	// Connectedness: for each vertex, edges containing it induce a subtree.
	for v := 0; v < h.N; v++ {
		var containing []int
		inEdge := make(map[int]bool)
		for i, e := range h.Edges {
			if containsSorted(e, v) {
				containing = append(containing, i)
				inEdge[i] = true
			}
		}
		if len(containing) <= 1 {
			continue
		}
		// The induced subgraph of the tree on `containing` must be
		// connected: count how many of them have their nearest containing
		// ancestor... simpler: walk from each containing edge up to the
		// root, recording the first containing ancestor; the subtree is
		// connected iff exactly one containing edge has none, and every
		// intermediate node on the path to that ancestor also contains v.
		rootless := 0
		for _, i := range containing {
			x := jt.Parent[i]
			for x != -1 && !inEdge[x] {
				// v must not "leave and re-enter": if some ancestor on the
				// path contains v we would have stopped; x does not contain
				// v, keep climbing.
				x = jt.Parent[x]
			}
			if x == -1 {
				rootless++
			} else {
				// Path from i to x must consist of edges containing v for
				// the classical join-tree property.
				y := jt.Parent[i]
				for y != x {
					if !inEdge[y] {
						return fmt.Errorf("hypergraph: vertex %d disconnected in join tree (edge %d to %d via %d)", v, i, x, y)
					}
					y = jt.Parent[y]
				}
			}
		}
		if rootless != 1 {
			return fmt.Errorf("hypergraph: vertex %d appears in %d disconnected join-tree components", v, rootless)
		}
	}
	return nil
}

func containsSorted(sorted []int, v int) bool {
	i := sort.SearchInts(sorted, v)
	return i < len(sorted) && sorted[i] == v
}
