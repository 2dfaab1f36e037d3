package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"

	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/gen"
	"csdb/internal/schaefer"
)

// Dispatch classes, as cspd's "route" field names them. Every family below
// belongs to its class by construction, so a response routed elsewhere is a
// change in what the workload exercises, not noise.
const (
	classTree     = "tree"
	classSchaefer = "schaefer"
	classAcyclic  = "acyclic"
	classWidth    = "width"
	classHard     = "hard"
)

// ptimeClasses are the structured families cold-auto cycles through;
// allClasses adds the Hard family.
var (
	ptimeClasses = []string{classTree, classSchaefer, classAcyclic, classWidth}
	allClasses   = []string{classTree, classSchaefer, classAcyclic, classWidth, classHard}
)

// request is one prepared /solve call: the rendered body, the class its
// family guarantees, and the seed that regenerates the instance for the
// answer check. Only the body is kept during the timed loop, so the
// generator's heap stays small and its collector stays out of the way.
type request struct {
	body  []byte
	class string
	seed  int64
}

// instance regenerates the request's instance from its seed: the answer
// check runs against the generator's instance, not against what cspio
// parsed back.
func (r *request) instance() *csp.Instance {
	return newInstance(rand.New(rand.NewSource(r.seed)), r.class)
}

// workload is everything one run sends, prepared before cspd starts.
type workload struct {
	name string
	// maxInflight is cspd's -max-inflight; 0 keeps the daemon default.
	maxInflight int
	// warm is sent once, in order, on one connection during set-up. For
	// hit-warm it is the working set, so the cache is full before timing.
	warm []*request
	// streams holds one closed-loop connection each. Stream 0 is measured
	// and fixes the run length; stream 1 (mixed-queue only) is background
	// search load that keeps sending until stream 0 has finished.
	streams [][]*request
	// wantHits: every timed response must come from the result cache.
	wantHits bool
}

// spec names a workload and gives its request rate on the reference
// machine (2 cores), which turns --seconds into a fixed request count so
// every percentile rests on a fixed number of samples. Why each workload
// exists is in BENCHMARK.json and NOTES.md. Listed workloads are the ones
// BENCHMARK.json names and the steadiness check runs; hit-warm is kept for
// measuring the hit path by hand but is not listed, because its run-to-run
// spread went over the end-to-end bounds (NOTES.md).
type spec struct {
	name   string
	rate   int
	build  func(rng *rand.Rand, n int) (*workload, error)
	listed bool
}

var specs = []spec{
	{"hit-warm", 650, buildHitWarm, false},
	{"cold-auto", 450, buildColdAuto, true},
	{"hard-search", 75, buildHardSearch, true},
	{"mixed-queue", 100, buildMixedQueue, true},
}

// listedSpecs returns the workloads BENCHMARK.json names, in order.
func listedSpecs() []spec {
	var out []spec
	for _, s := range specs {
		if s.listed {
			out = append(out, s)
		}
	}
	return out
}

func specNamed(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Family sizes. Bodies within a family are near-uniform in size, and the
// four structured families are sized so that a cold request costs about the
// same whichever class it lands in.
const (
	treeVars      = 40
	treeDom       = 5
	schaeferVars  = 80
	schaeferCons  = 120
	acyclicEdges  = 70
	widthVars     = 18
	widthDom      = 4
	hardVars      = 20
	hardDom       = 10
	hardDensity   = 0.3
	hitWorkingSet = 200 // ≤ cspd's -cache 256: no timed request can miss
	zipfS         = 1.1
	cacheEntries  = 256
	// warmSeed fixes the warm-up requests of the cold workloads, so set-up
	// does the same work whatever --seed says.
	warmSeed = 0x5eed
)

var schaeferPolymorphisms = []schaefer.Class{
	schaefer.ZeroValid, schaefer.OneValid, schaefer.Horn,
	schaefer.DualHorn, schaefer.Bijunctive, schaefer.Affine,
}

// newInstance draws one instance of the class's family.
func newInstance(rng *rand.Rand, class string) *csp.Instance {
	switch class {
	case classTree:
		// Each variable after the first hangs off a random earlier one.
		edges := make([][2]int, 0, treeVars-1)
		for v := 1; v < treeVars; v++ {
			edges = append(edges, [2]int{rng.Intn(v), v})
		}
		return onEdges(rng, treeVars, treeDom, edges)
	case classSchaefer:
		// A template closed under one Schaefer polymorphism over ternary
		// scopes: Boolean, never binary, so never a tree.
		rel := gen.ClosedBoolRel(rng, 3, schaeferPolymorphisms[rng.Intn(len(schaeferPolymorphisms))], 2)
		sp := &schaefer.Instance{
			Template: &schaefer.Template{Rels: []*schaefer.BoolRel{rel}},
			NumVars:  schaeferVars,
		}
		for c := 0; c < schaeferCons; c++ {
			sp.Cons = append(sp.Cons, schaefer.Application{Rel: 0, Scope: rng.Perm(schaeferVars)[:3]})
		}
		p, err := sp.ToCSP()
		if err != nil {
			panic(fmt.Sprintf("cspdbench: closed template rejected: %v", err))
		}
		return p
	case classAcyclic:
		// Ear-grown, three values (not Boolean), and redrawn until some
		// scope has three distinct variables (so not a binary forest).
		for {
			p := gen.AcyclicCSP(rng, acyclicEdges, 3, 3, 0.3)
			if hasWideScope(p) {
				return p
			}
		}
	case classWidth:
		// A partial 2-tree with a cycle: width ≤ 2, neither a forest nor
		// α-acyclic.
		for {
			p := onEdges(rng, widthVars, widthDom, partial2Tree(rng, widthVars, 0.1))
			if hasCycle(p) {
				return p
			}
		}
	case classHard:
		return gen.PhaseTransition(rng, hardVars, hardDom, hardDensity)
	}
	panic("cspdbench: unknown class " + class)
}

// onEdges puts a random binary table of tightness 0.3 on each edge, in
// the given order. The graph generators of internal/gen keep adjacency in
// maps, so their edge order, and with it the instance a seed draws, varies
// from run to run; the benchmark builds its graphs as ordered edge lists.
func onEdges(rng *rand.Rand, vars, dom int, edges [][2]int) *csp.Instance {
	p := csp.NewInstance(vars, dom)
	for _, e := range edges {
		p.MustAddConstraint([]int{e[0], e[1]}, gen.RandomBinaryTable(rng, dom, 0.3))
	}
	return p
}

// partial2Tree grows a 2-tree (each new vertex joins both ends of a random
// existing 2-clique) and then drops each edge with probability dropP, as
// gen.PartialKTree does for k = 2.
func partial2Tree(rng *rand.Rand, n int, dropP float64) [][2]int {
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

func hasWideScope(p *csp.Instance) bool {
	for _, c := range p.Constraints {
		if len(c.Scope) >= 3 && c.Scope[0] != c.Scope[1] && c.Scope[1] != c.Scope[2] && c.Scope[0] != c.Scope[2] {
			return true
		}
	}
	return false
}

// hasCycle reports whether the primal graph of a binary instance has a
// cycle (union-find over its edges).
func hasCycle(p *csp.Instance) bool {
	parent := make([]int, p.Vars)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, c := range p.Constraints {
		if len(c.Scope) != 2 || c.Scope[0] == c.Scope[1] {
			continue
		}
		a, b := find(c.Scope[0]), find(c.Scope[1])
		if a == b {
			return true
		}
		parent[a] = b
	}
	return false
}

// pool draws distinct instances: every request of a run has its own
// canonical hash, so a result-cache or classification-cache hit on a fresh
// request is impossible by construction.
type pool struct {
	seen map[uint64]bool
}

func newPool() *pool { return &pool{seen: map[uint64]bool{}} }

// draw renders one fresh instance of the class. Each instance gets its own
// sub-seed from rng, so the sequence is byte-identical for a given seed.
func (pl *pool) draw(rng *rand.Rand, class string) (*request, error) {
	for attempt := 0; attempt < 100; attempt++ {
		seed := rng.Int63()
		inst := newInstance(rand.New(rand.NewSource(seed)), class)
		h := cspio.CanonicalHash(inst)
		if pl.seen[h] {
			continue
		}
		pl.seen[h] = true
		var b bytes.Buffer
		if err := cspio.Format(&b, inst); err != nil {
			return nil, fmt.Errorf("render %s instance: %w", class, err)
		}
		return &request{body: b.Bytes(), class: class, seed: seed}, nil
	}
	return nil, fmt.Errorf("no fresh %s instance in 100 draws", class)
}

// drawCycle draws n fresh instances cycling through classes in a
// seed-shuffled order, so each class gets an equal share.
func (pl *pool) drawCycle(rng *rand.Rand, classes []string, n int) ([]*request, error) {
	order := make([]string, n)
	for i := range order {
		order[i] = classes[i%len(classes)]
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	out := make([]*request, n)
	for i, class := range order {
		r, err := pl.draw(rng, class)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// workloadRNG derives the generator for one workload and seed.
func workloadRNG(name string, seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// buildWorkload prepares n measured requests of the named workload.
func buildWorkload(name string, seed int64, n int) (*workload, error) {
	s, ok := specNamed(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return s.build(workloadRNG(name, seed), n)
}

func buildHitWarm(rng *rand.Rand, n int) (*workload, error) {
	pl := newPool()
	set := make([]*request, hitWorkingSet)
	for i := range set {
		r, err := pl.draw(rng, classTree)
		if err != nil {
			return nil, err
		}
		set[i] = r
	}
	z := rand.NewZipf(rng, zipfS, 1, hitWorkingSet-1)
	seq := make([]*request, n)
	for i := range seq {
		seq[i] = set[z.Uint64()]
	}
	return &workload{name: "hit-warm", warm: set, streams: [][]*request{seq}, wantHits: true}, nil
}

// coldWarmup draws the fixed warm-up requests of a cold workload into the
// run's pool, so no timed request can repeat one.
func coldWarmup(pl *pool, classes []string, n int) ([]*request, error) {
	return pl.drawCycle(rand.New(rand.NewSource(warmSeed)), classes, n)
}

func buildColdAuto(rng *rand.Rand, n int) (*workload, error) {
	pl := newPool()
	warm, err := coldWarmup(pl, ptimeClasses, 40)
	if err != nil {
		return nil, err
	}
	seq, err := pl.drawCycle(rng, ptimeClasses, n)
	if err != nil {
		return nil, err
	}
	return &workload{name: "cold-auto", warm: warm, streams: [][]*request{seq}}, nil
}

func buildHardSearch(rng *rand.Rand, n int) (*workload, error) {
	pl := newPool()
	warm, err := coldWarmup(pl, []string{classHard}, 10)
	if err != nil {
		return nil, err
	}
	seq, err := pl.drawCycle(rng, []string{classHard}, n)
	if err != nil {
		return nil, err
	}
	return &workload{name: "hard-search", warm: warm, streams: [][]*request{seq}}, nil
}

// buildMixedQueue prepares n cheap requests and enough search bombs to keep
// the single admission slot busy throughout: with one slot and FIFO
// admission the two connections alternate, so about one bomb runs per
// cheap request; the margin covers the bombs sent while the last cheap
// requests finish.
func buildMixedQueue(rng *rand.Rand, n int) (*workload, error) {
	pl := newPool()
	warm, err := coldWarmup(pl, allClasses, 20)
	if err != nil {
		return nil, err
	}
	cheap, err := pl.drawCycle(rng, ptimeClasses, n)
	if err != nil {
		return nil, err
	}
	bombs, err := pl.drawCycle(rng, []string{classHard}, n+n/4+10)
	if err != nil {
		return nil, err
	}
	return &workload{name: "mixed-queue", maxInflight: 1, warm: warm, streams: [][]*request{cheap, bombs}}, nil
}
