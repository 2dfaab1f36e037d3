package dispatch

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/gen"
	"csdb/internal/graph"
	"csdb/internal/hypergraph"
	"csdb/internal/schaefer"
	"csdb/internal/treewidth"
)

// The classifier's three structure checks are flat, budgeted kernels. This
// file keeps the straightforward map-based implementations they replaced —
// the forest check over a graph.Graph, GYO over map sets, and elimination
// over map adjacency run to completion for every heuristic — as reference
// oracles, and requires the kernels to agree with them exactly: same
// class, same join tree, same decomposition.

// oracleIsTree: binary scopes and a primal graph with no cycle, by DFS.
func oracleIsTree(p *csp.Instance) bool {
	g := graph.New(p.Vars)
	for _, con := range p.Constraints {
		a, b := -1, -1
		for _, v := range con.Scope {
			switch {
			case a < 0 || v == a:
				a = v
			case b < 0 || v == b:
				b = v
			default:
				return false
			}
		}
		if a >= 0 && b >= 0 {
			g.AddEdge(a, b)
		}
	}
	visited := make([]bool, g.N())
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	for start := 0; start < g.N(); start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		stack := []int{start}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(v) {
				if u == v {
					return false
				}
				if u == parent[v] {
					continue
				}
				if visited[u] {
					return false
				}
				visited[u] = true
				parent[u] = v
				stack = append(stack, u)
			}
		}
	}
	return true
}

// oracleGYO is the GYO reduction over map sets: sweep every vertex for
// private ones, then every edge (ascending) against every other live edge
// (ascending) for a superset, until one edge is left or nothing changes.
func oracleGYO(n int, edges [][]int) (bool, *hypergraph.JoinTree) {
	m := len(edges)
	if m == 0 {
		return true, &hypergraph.JoinTree{Parent: nil, Root: -1}
	}
	sets := make([]map[int]bool, m)
	alive := make([]bool, m)
	parent := make([]int, m)
	for i, e := range edges {
		sets[i] = make(map[int]bool, len(e))
		for _, v := range e {
			sets[i][v] = true
		}
		alive[i] = true
		parent[i] = -1
	}
	aliveCount := m
	subset := func(a, b map[int]bool) bool {
		if len(a) > len(b) {
			return false
		}
		for v := range a {
			if !b[v] {
				return false
			}
		}
		return true
	}
	for {
		changed := false
		for v := 0; v < n; v++ {
			var occ []int
			for i := range sets {
				if alive[i] && sets[i][v] {
					occ = append(occ, i)
				}
			}
			if len(occ) == 1 {
				delete(sets[occ[0]], v)
				changed = true
			}
		}
		for i := 0; i < m; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < m; j++ {
				if i != j && alive[j] && subset(sets[i], sets[j]) {
					alive[i], parent[i] = false, j
					aliveCount--
					changed = true
					break
				}
			}
		}
		if aliveCount == 1 {
			root := -1
			for i := range alive {
				if alive[i] {
					root = i
				}
			}
			return true, &hypergraph.JoinTree{Parent: parent, Root: root}
		}
		if !changed {
			return false, nil
		}
	}
}

// oracleElim is elimination over map adjacency sets.
type oracleElim []map[int]bool

func newOracleElim(g *graph.Graph) oracleElim {
	e := make(oracleElim, g.N())
	for v := range e {
		e[v] = make(map[int]bool)
		for _, u := range g.Neighbors(v) {
			if u != v {
				e[v][u] = true
			}
		}
	}
	return e
}

func (e oracleElim) neighbours(v int) []int {
	nb := make([]int, 0, len(e[v]))
	for u := range e[v] {
		nb = append(nb, u)
	}
	sort.Ints(nb)
	return nb
}

func (e oracleElim) eliminate(v int) []int {
	nb := e.neighbours(v)
	for i, a := range nb {
		for _, b := range nb[i+1:] {
			e[a][b], e[b][a] = true, true
		}
	}
	for _, u := range nb {
		delete(e[u], v)
	}
	e[v] = nil
	return nb
}

func (e oracleElim) fill(v int) int {
	nb := e.neighbours(v)
	f := 0
	for i, a := range nb {
		for _, b := range nb[i+1:] {
			if !e[a][b] {
				f++
			}
		}
	}
	return f
}

// oracleOrdering: MinFill and MinDegree rescan every remaining vertex per
// step (least score, lowest id); MCS picks the most-weighted unvisited
// vertex (lowest id) and is reversed.
func oracleOrdering(g *graph.Graph, h treewidth.Heuristic) []int {
	n := g.N()
	if h == treewidth.MCS {
		weight := make([]int, n)
		visited := make([]bool, n)
		order := make([]int, n)
		for step := 0; step < n; step++ {
			best := -1
			for v := 0; v < n; v++ {
				if !visited[v] && (best < 0 || weight[v] > weight[best]) {
					best = v
				}
			}
			visited[best] = true
			order[n-1-step] = best
			for _, u := range g.Neighbors(best) {
				if !visited[u] {
					weight[u]++
				}
			}
		}
		return order
	}
	e := newOracleElim(g)
	done := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestScore := -1, 0
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			score := len(e[v])
			if h == treewidth.MinFill {
				score = e.fill(v)
			}
			if best < 0 || score < bestScore {
				best, bestScore = v, score
			}
		}
		e.eliminate(best)
		done[best] = true
		order = append(order, best)
	}
	return order
}

func oracleWidth(g *graph.Graph, order []int) int {
	e := newOracleElim(g)
	w := 0
	for _, v := range order {
		w = max(w, len(e[v]))
		e.eliminate(v)
	}
	return w
}

func oracleFromOrdering(g *graph.Graph, order []int) *treewidth.Decomposition {
	n := g.N()
	if n == 0 {
		return &treewidth.Decomposition{}
	}
	e := newOracleElim(g)
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	d := &treewidth.Decomposition{}
	for _, v := range order {
		bag := append([]int{v}, e.eliminate(v)...)
		sort.Ints(bag)
		d.Bags = append(d.Bags, bag)
		d.Adj = append(d.Adj, nil)
	}
	attach := func(a, b int) {
		d.Adj[a] = append(d.Adj[a], b)
		d.Adj[b] = append(d.Adj[b], a)
	}
	var roots []int
	for i, v := range order {
		next := -1
		for _, u := range d.Bags[i] {
			if u != v && pos[u] > pos[v] && (next < 0 || pos[u] < pos[next]) {
				next = u
			}
		}
		if next >= 0 {
			attach(i, pos[next])
		} else {
			roots = append(roots, i)
		}
	}
	for i := 1; i < len(roots); i++ {
		attach(roots[0], roots[i])
	}
	return d
}

// oracleBest runs all three heuristics to completion; the first strictly
// smaller width wins.
func oracleBest(g *graph.Graph) *treewidth.Decomposition {
	var best *treewidth.Decomposition
	for _, h := range []treewidth.Heuristic{treewidth.MinFill, treewidth.MinDegree, treewidth.MCS} {
		d := oracleFromOrdering(g, oracleOrdering(g, h))
		if best == nil || d.Width() < best.Width() {
			best = d
		}
	}
	return best
}

// oracleClassify is classify's decision tree over the oracles.
func oracleClassify(p *csp.Instance, budget int) Classification {
	if oracleIsTree(p) {
		return Classification{Class: Tree}
	}
	if p.Dom == 2 {
		if sp, err := schaefer.FromCSP(p); err == nil && sp.Template.IsTractable() {
			return Classification{Class: Schaefer}
		}
	}
	scopes := make([][]int, len(p.Constraints))
	for i, con := range p.Constraints {
		scopes[i] = con.Scope
	}
	if acyclic, jt := oracleGYO(p.Vars, scopes); acyclic {
		return Classification{Class: Acyclic, JoinTree: jt}
	}
	if d := oracleBest(treewidth.PrimalGraph(p)); d.Width() <= budget {
		return Classification{Class: BoundedWidth, Width: d.Width(), Decomp: d}
	}
	return Classification{Class: Hard}
}

// sameClassification compares everything but the Schaefer witness, which
// must be present exactly on the Schaefer class.
func sameClassification(got, want Classification) bool {
	if (got.Boolean != nil) != (got.Class == Schaefer) {
		return false
	}
	got.Boolean = nil
	return reflect.DeepEqual(got, want)
}

// oracleFamilies adds the remaining gen families, at sizes up to the
// benchmark's, to the differential gate's.
func oracleFamilies() []family {
	fams := diffFamilies()
	add := func(name string, g func(rng *rand.Rand) *csp.Instance) {
		fams = append(fams, family{name: name, gen: g})
	}
	add("model-b", func(rng *rand.Rand) *csp.Instance {
		return gen.ModelB(rng, 4+rng.Intn(12), 2+rng.Intn(4), 0.1+0.5*rng.Float64(), 0.3)
	})
	add("phase-transition", func(rng *rand.Rand) *csp.Instance { return gen.PhaseTransition(rng, 20, 10, 0.3) })
	add("partial-k-tree", func(rng *rand.Rand) *csp.Instance {
		g, _ := gen.PartialKTree(rng, 6+rng.Intn(14), 1+rng.Intn(4), 0.3*rng.Float64())
		return gen.CSPOnGraph(rng, g, 3, 0.3)
	})
	add("random-graph", func(rng *rand.Rand) *csp.Instance {
		return gen.Coloring(gen.RandomGraph(rng, 3+rng.Intn(15), 0.1+0.4*rng.Float64()), 3)
	})
	add("random-tree-2", func(rng *rand.Rand) *csp.Instance {
		return gen.CSPOnGraph(rng, gen.RandomTree(rng, 2+rng.Intn(40)), 2, 0.3)
	})
	add("tree-parallel", func(rng *rand.Rand) *csp.Instance {
		// A second constraint on one tree edge, scope reversed: still a
		// forest, since the primal graph has no parallel edges.
		p := gen.CSPOnGraph(rng, gen.RandomTree(rng, 2+rng.Intn(10)), 3, 0.3)
		c := p.Constraints[rng.Intn(len(p.Constraints))]
		p.MustAddConstraint([]int{c.Scope[1], c.Scope[0]}, gen.RandomBinaryTable(rng, 3, 0.3))
		return p
	})
	add("acyclic-wide", func(rng *rand.Rand) *csp.Instance { return gen.AcyclicCSP(rng, 70, 3, 3, 0.3) })
	add("acyclic-boolean", func(rng *rand.Rand) *csp.Instance { return gen.AcyclicCSP(rng, 2+rng.Intn(20), 4, 2, 0.4) })
	add("schaefer-80", func(rng *rand.Rand) *csp.Instance {
		rel := gen.ClosedBoolRel(rng, 3, schaeferClasses[rng.Intn(len(schaeferClasses))], 2)
		sp := &schaefer.Instance{Template: &schaefer.Template{Rels: []*schaefer.BoolRel{rel}}, NumVars: 80}
		for c := 0; c < 120; c++ {
			sp.Cons = append(sp.Cons, schaefer.Application{Rel: 0, Scope: rng.Perm(80)[:3]})
		}
		p, err := sp.ToCSP()
		if err != nil {
			panic(err)
		}
		return p
	})
	add("nqueens", func(rng *rand.Rand) *csp.Instance { return gen.NQueens(4 + rng.Intn(4)) })
	add("pigeonhole", func(rng *rand.Rand) *csp.Instance { return gen.Pigeonhole(2+rng.Intn(4), 1+rng.Intn(4)) })
	add("quasigroup", func(rng *rand.Rand) *csp.Instance { return gen.Quasigroup(rng, 3+rng.Intn(2), rng.Intn(6)) })
	return fams
}

// fuzzCorpus returns the FuzzDispatch seeds plus the checked-in corpus.
func fuzzCorpus(t *testing.T) []string {
	t.Helper()
	inputs := append([]string(nil), fuzzSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDispatch", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(string(data), "\n", 2)
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		inputs = append(inputs, s)
	}
	return inputs
}

// TestClassifyMatchesOracle is the classifier's differential gate: over
// every gen family, the FuzzDispatch corpus and each instance's
// constraint-reversed twin, under budgets 1–5, classify returns exactly
// the oracle's class, join tree and decomposition.
func TestClassifyMatchesOracle(t *testing.T) {
	var insts []*csp.Instance
	for _, fam := range oracleFamilies() {
		rng := rand.New(rand.NewSource(int64(len(fam.name)) * 7919))
		for trial := 0; trial < 20; trial++ {
			if p := fam.gen(rng); p != nil {
				insts = append(insts, p)
			}
		}
	}
	for _, s := range fuzzCorpus(t) {
		if p, err := cspio.Parse(bytes.NewReader([]byte(s))); err == nil {
			insts = append(insts, p) // FuzzDispatch skips the rest too
		}
	}
	for _, p := range insts[:len(insts):len(insts)] {
		insts = append(insts, reversed(p))
	}
	classes := make(map[Class]int)
	for i, p := range insts {
		for budget := 1; budget <= 5; budget++ {
			got := NewAnalyzer(budget, 0).classify(p)
			want := oracleClassify(p, budget)
			if !sameClassification(got, want) {
				var text bytes.Buffer
				cspio.Format(&text, p)
				t.Fatalf("instance %d, budget %d: classify = %+v, oracle = %+v\n%s",
					i, budget, got, want, text.String())
			}
			classes[got.Class]++
		}
	}
	for _, c := range []Class{Tree, Schaefer, Acyclic, BoundedWidth, Hard} {
		if classes[c] == 0 {
			t.Errorf("no instance classified %v: the gate does not reach that kernel", c)
		}
	}
}

// TestEliminationMatchesOracle pins every public entry point of the
// elimination kernel to the oracle on random graphs, including dense ones
// where the fill-in bookkeeping does the most work.
func TestEliminationMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		g := gen.RandomGraph(rng, rng.Intn(25), rng.Float64())
		if rng.Intn(4) == 0 && g.N() > 0 {
			g.AddEdge(rng.Intn(g.N()), rng.Intn(g.N())) // maybe a loop
		}
		for _, h := range []treewidth.Heuristic{treewidth.MinFill, treewidth.MinDegree, treewidth.MCS} {
			order := treewidth.Ordering(g, h)
			if want := oracleOrdering(g, h); !reflect.DeepEqual(order, want) {
				t.Fatalf("trial %d %v: Ordering = %v, oracle %v", trial, h, order, want)
			}
			if w, want := treewidth.WidthOfOrdering(g, order), oracleWidth(g, order); w != want {
				t.Fatalf("trial %d %v: WidthOfOrdering = %d, oracle %d", trial, h, w, want)
			}
			if d, want := treewidth.FromOrdering(g, order), oracleFromOrdering(g, order); !reflect.DeepEqual(d, want) {
				t.Fatalf("trial %d %v: FromOrdering = %+v, oracle %+v", trial, h, d, want)
			}
		}
		if d, want := treewidth.BestHeuristic(g), oracleBest(g); !reflect.DeepEqual(d, want) {
			t.Fatalf("trial %d: BestHeuristic = %+v, oracle %+v", trial, d, want)
		}
	}
}

// FuzzGYO runs the flat GYO kernel against the oracle on hypergraphs
// decoded from the input: each byte adds a vertex to the current edge, and
// a byte with the top bit set closes it.
func FuzzGYO(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 0x81, 2, 0x83})
	f.Add(uint8(3), []byte{0, 0x81, 1, 0x82, 2, 0x80})
	f.Add(uint8(6), []byte{0, 1, 0x82, 2, 3, 0x84, 0, 0x82, 5, 0x85})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		if n == 0 || n > 32 || len(data) > 256 {
			t.Skip()
		}
		h := hypergraph.New(int(n))
		var edge []int
		for _, b := range data {
			edge = append(edge, int(b&0x7f)%int(n))
			if b&0x80 != 0 {
				h.MustAddEdge(edge...)
				edge = edge[:0]
			}
		}
		gotAcyclic, gotJT := h.GYO()
		wantAcyclic, wantJT := oracleGYO(h.N, h.Edges)
		if gotAcyclic != wantAcyclic || !reflect.DeepEqual(gotJT, wantJT) {
			t.Fatalf("GYO = %v %+v, oracle %v %+v on %v", gotAcyclic, gotJT, wantAcyclic, wantJT, h.Edges)
		}
	})
}
