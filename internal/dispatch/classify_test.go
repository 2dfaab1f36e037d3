package dispatch

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/gen"
	"csdb/internal/schaefer"
)

// The classify benchmark families are sized like cspdbench's. Graph
// shapes come from ordered edge lists, so a seed draws the same instances
// whatever the graph package's iteration order.

// onEdges puts a random binary table of tightness 0.3 on each edge, in
// order.
func onEdges(rng *rand.Rand, vars, dom int, edges [][2]int) *csp.Instance {
	p := csp.NewInstance(vars, dom)
	for _, e := range edges {
		p.MustAddConstraint([]int{e[0], e[1]}, gen.RandomBinaryTable(rng, dom, 0.3))
	}
	return p
}

// treeEdges hangs each vertex after the first off a random earlier one.
func treeEdges(rng *rand.Rand, n int) [][2]int {
	edges := make([][2]int, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	return edges
}

// partial2TreeEdges grows a 2-tree (each new vertex joins both ends of a
// random existing 2-clique) and drops each edge with probability dropP.
func partial2TreeEdges(rng *rand.Rand, n int, dropP float64) [][2]int {
	edges := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	cliques := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	for v := 3; v < n; v++ {
		c := cliques[rng.Intn(len(cliques))]
		edges = append(edges, [2]int{c[0], v}, [2]int{c[1], v})
		cliques = append(cliques, [2]int{c[0], v}, [2]int{c[1], v})
	}
	kept := edges[:0]
	for _, e := range edges {
		if rng.Float64() >= dropP {
			kept = append(kept, e)
		}
	}
	return kept
}

// classifyFamilies maps each class to a generator of its cspdbench-sized
// family.
var classifyFamilies = []struct {
	name string
	gen  func(rng *rand.Rand) *csp.Instance
}{
	{"tree", func(rng *rand.Rand) *csp.Instance { return onEdges(rng, 40, 5, treeEdges(rng, 40)) }},
	{"schaefer", func(rng *rand.Rand) *csp.Instance {
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
	}},
	{"acyclic", func(rng *rand.Rand) *csp.Instance { return gen.AcyclicCSP(rng, 70, 3, 3, 0.3) }},
	{"width", func(rng *rand.Rand) *csp.Instance { return onEdges(rng, 18, 4, partial2TreeEdges(rng, 18, 0.1)) }},
	{"hard", func(rng *rand.Rand) *csp.Instance { return gen.PhaseTransition(rng, 20, 10, 0.3) }},
}

// classifySink keeps the benchmarked classifications live.
var classifySink Classification

// BenchmarkClassify times one classification per op, cycling through 64
// fixed instances of each family.
func BenchmarkClassify(b *testing.B) {
	an := NewAnalyzer(0, 0)
	for _, fam := range classifyFamilies {
		rng := rand.New(rand.NewSource(19))
		insts := make([]*csp.Instance, 64)
		for i := range insts {
			insts[i] = fam.gen(rng)
		}
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				classifySink = an.classify(insts[i%len(insts)])
			}
		})
	}
}

// frontEndSink keeps the benchmarked parses, hashes and keys live.
var frontEndSink struct {
	inst *csp.Instance
	hash uint64
	key  [2]uint64
}

// BenchmarkFrontEnd times the layers a request runs before the
// dispatcher, one body per op, over the same 64 instances per family as
// BenchmarkClassify rendered through cspio.Format: parse, the body into an
// instance (one Table per constraint); hash, the instance's CanonicalHash
// (the cspr ring's routing key); and key, its keyed Digest (cspd's
// result-cache key).
func BenchmarkFrontEnd(b *testing.B) {
	for _, fam := range classifyFamilies {
		rng := rand.New(rand.NewSource(19))
		bodies := make([][]byte, 64)
		insts := make([]*csp.Instance, len(bodies))
		for i := range bodies {
			var buf bytes.Buffer
			if err := cspio.Format(&buf, fam.gen(rng)); err != nil {
				b.Fatal(err)
			}
			bodies[i] = buf.Bytes()
			inst, err := cspio.ParseBytes(bodies[i])
			if err != nil {
				b.Fatal(err)
			}
			insts[i] = inst
		}
		b.Run(fam.name+"/parse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst, err := cspio.ParseBytes(bodies[i%len(bodies)])
				if err != nil {
					b.Fatal(err)
				}
				frontEndSink.inst = inst
			}
		})
		b.Run(fam.name+"/hash", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frontEndSink.hash = cspio.CanonicalHash(insts[i%len(insts)])
			}
		})
		b.Run(fam.name+"/key", func(b *testing.B) {
			b.ReportAllocs()
			key := cspio.NewDigestKey()
			for i := 0; i < b.N; i++ {
				frontEndSink.key = cspio.Digest(insts[i%len(insts)], key)
			}
		})
	}
}

// solveSink keeps the benchmarked verdicts live.
var solveSink csp.Result

// BenchmarkSolveClass times one routed solve per op — solveClass on a
// classification made outside the timer — cycling through the same 64
// instances per family as BenchmarkClassify. The hard family has no routed
// solver, so it is skipped.
func BenchmarkSolveClass(b *testing.B) {
	an := NewAnalyzer(0, 0)
	ctx := context.Background()
	for _, fam := range classifyFamilies {
		if fam.name == "hard" {
			continue
		}
		rng := rand.New(rand.NewSource(19))
		insts := make([]*csp.Instance, 64)
		classes := make([]Classification, len(insts))
		for i := range insts {
			insts[i] = fam.gen(rng)
			classes[i] = an.classify(insts[i])
		}
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := an.solveClass(ctx, insts[i%len(insts)], classes[i%len(insts)])
				if err != nil {
					b.Fatal(err)
				}
				solveSink = res
			}
		})
	}
}

// TestClassifyMemoryBound classifies 200,000-variable instances whose
// constraints touch only 30 variables, in three shapes, and bounds the
// bytes allocated by a small multiple of the variable count. The bounds
// leave less slack than one empty map per variable costs (7 words), and
// an n×n bitset is 25,000 words per variable. The triangle pays most: its
// decomposition has one bag per variable, carrying two slice headers.
func TestClassifyMemoryBound(t *testing.T) {
	const vars, touched = 200000, 30
	ne := gen.NotEqualTable(3)
	build := func(edges [][2]int) *csp.Instance {
		p := csp.NewInstance(vars, 3)
		for _, e := range edges {
			p.MustAddConstraint([]int{e[0] * (vars / touched), e[1] * (vars / touched)}, ne)
		}
		return p
	}
	path := make([][2]int, 0, touched)
	for v := 1; v < touched; v++ {
		path = append(path, [2]int{v - 1, v})
	}
	var clique [][2]int
	for a := 0; a < touched; a++ {
		for b := a + 1; b < touched; b++ {
			clique = append(clique, [2]int{a, b})
		}
	}
	for _, tc := range []struct {
		name        string
		p           *csp.Instance
		want        Class
		wordsPerVar uint64
	}{
		{"forest", build(path), Tree, 2},
		{"clique", build(clique), Hard, 16},
		{"triangle", build(append(path[:len(path):len(path)], [2]int{0, 2})), BoundedWidth, 28},
	} {
		an := NewAnalyzer(0, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cls := an.classify(tc.p)
		runtime.ReadMemStats(&after)
		if cls.Class != tc.want {
			t.Fatalf("%s: class %v, want %v", tc.name, cls.Class, tc.want)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes, %.1f words per variable", tc.name, alloc, float64(alloc)/8/vars)
		if alloc > tc.wordsPerVar*8*vars {
			t.Fatalf("%s: classify allocated %d bytes, over %d words per variable", tc.name, alloc, tc.wordsPerVar)
		}
	}
}
