package cspio

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"csdb/internal/csp"
	"csdb/internal/gen"
	"csdb/internal/schaefer"
)

func parseT(t *testing.T, text string) *csp.Instance {
	t.Helper()
	inst, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return inst
}

// TestCanonicalOrderInsensitive checks that every incidental ordering in the
// text format — constraint order, tuple order, scope column order, dom_of
// value order, duplicate constraints, names — leaves the hash unchanged.
func TestCanonicalOrderInsensitive(t *testing.T) {
	base := parseT(t, `
vars 3
dom 3
dom_of 2 : 0 2
con 0 1 : 0 1 | 1 0 | 2 1
con 1 2 : 0 2 | 2 0
`)
	for name, variant := range map[string]string{
		"constraint order": `
vars 3
dom 3
dom_of 2 : 0 2
con 1 2 : 0 2 | 2 0
con 0 1 : 0 1 | 1 0 | 2 1
`,
		"tuple order": `
vars 3
dom 3
dom_of 2 : 0 2
con 0 1 : 2 1 | 0 1 | 1 0
con 1 2 : 2 0 | 0 2
`,
		"scope column order": `
vars 3
dom 3
dom_of 2 : 0 2
con 1 0 : 1 0 | 0 1 | 1 2
con 2 1 : 2 0 | 0 2
`,
		"dom_of value order and dups": `
vars 3
dom 3
dom_of 2 : 2 0 2
con 0 1 : 0 1 | 1 0 | 2 1
con 1 2 : 0 2 | 2 0
`,
		"duplicate constraint": `
vars 3
dom 3
dom_of 2 : 0 2
con 0 1 : 0 1 | 1 0 | 2 1
con 0 1 : 0 1 | 1 0 | 2 1
con 1 2 : 0 2 | 2 0
`,
		"names ignored": `
vars 3
dom 3
names a b c
dom_of 2 : 0 2
con 0 1 : 0 1 | 1 0 | 2 1
con 1 2 : 0 2 | 2 0
`,
	} {
		inst := parseT(t, variant)
		if got, want := CanonicalHash(inst), CanonicalHash(base); got != want {
			t.Errorf("%s: hash %#x != base %#x\nbase: %q\nvariant: %q",
				name, got, want, Canonical(base), Canonical(inst))
		}
	}
}

// TestCanonicalDiscriminates checks that semantically different instances
// get different encodings (hash collisions aside, the encodings themselves
// must differ).
func TestCanonicalDiscriminates(t *testing.T) {
	base := parseT(t, "vars 2\ndom 2\ncon 0 1 : 0 1 | 1 0\n")
	for name, variant := range map[string]string{
		"extra tuple":      "vars 2\ndom 2\ncon 0 1 : 0 1 | 1 0 | 0 0\n",
		"different scope":  "vars 3\ndom 2\ncon 0 2 : 0 1 | 1 0\n",
		"more vars":        "vars 3\ndom 2\ncon 0 1 : 0 1 | 1 0\n",
		"bigger domain":    "vars 2\ndom 3\ncon 0 1 : 0 1 | 1 0\n",
		"restricted dom":   "vars 2\ndom 2\ndom_of 0 : 0\ncon 0 1 : 0 1 | 1 0\n",
		"extra constraint": "vars 2\ndom 2\ncon 0 1 : 0 1 | 1 0\ncon 0 1 : 0 1\n",
	} {
		inst := parseT(t, variant)
		if string(Canonical(inst)) == string(Canonical(base)) {
			t.Errorf("%s: encoding identical to base: %q", name, Canonical(base))
		}
	}
}

// TestCanonicalScopePermutationKeepsColumns pins the column permutation: a
// non-symmetric table under a reversed scope must canonicalize to the same
// bytes only when the tuples are permuted consistently.
func TestCanonicalScopePermutationKeepsColumns(t *testing.T) {
	// x<y as scope (0,1) with tuples (0,1),(0,2),(1,2).
	a := parseT(t, "vars 2\ndom 3\ncon 0 1 : 0 1 | 0 2 | 1 2\n")
	// Same relation written with scope (1,0): tuples are (y,x).
	b := parseT(t, "vars 2\ndom 3\ncon 1 0 : 1 0 | 2 0 | 2 1\n")
	// A genuinely different relation (x>y) with the same tuple multiset
	// under scope (0,1): must NOT collide.
	c := parseT(t, "vars 2\ndom 3\ncon 0 1 : 1 0 | 2 0 | 2 1\n")
	if CanonicalHash(a) != CanonicalHash(b) {
		t.Errorf("permuted scope changed the hash: %q vs %q", Canonical(a), Canonical(b))
	}
	if string(Canonical(a)) == string(Canonical(c)) {
		t.Errorf("transposed relation collided: %q", Canonical(a))
	}
}

// TestCanonicalHashStable guards the encoding against accidental format
// drift: the bytes are a cache key, so changing them silently invalidates
// warm caches across daemon restarts within one build only — but a change
// should at least be deliberate.
func TestCanonicalHashStable(t *testing.T) {
	inst := parseT(t, "vars 2\ndom 2\ncon 0 1 : 0 1 | 1 0\n")
	want := "2 2 C0 1 :0 1 |1 0 |;"
	if got := string(Canonical(inst)); got != want {
		t.Errorf("canonical encoding drifted: got %q want %q", got, want)
	}
}

// canonicalFamilies draws a few instances from every internal/gen family,
// each also with a dom_of restriction on its first variable.
func canonicalFamilies() map[string][]*csp.Instance {
	rng := rand.New(rand.NewSource(15))
	boolRel := func(class schaefer.Class) *csp.Instance {
		p := csp.NewInstance(6, 2)
		for i := 0; i < 5; i++ {
			rel := gen.ClosedBoolRel(rng, 3, class, 3)
			p.MustAddConstraint([]int{i % 6, (i + 2) % 6, (i + 4) % 6}, csp.TableOf(3, rel.Tuples()...))
		}
		return p
	}
	draw := map[string]func() *csp.Instance{
		"model-b":        func() *csp.Instance { return gen.ModelB(rng, 8, 4, 0.5, 0.4) },
		"tree":           func() *csp.Instance { return gen.CSPOnGraph(rng, gen.RandomTree(rng, 10), 3, 0.4) },
		"partial-k-tree": func() *csp.Instance { g, _ := gen.PartialKTree(rng, 9, 3, 0.2); return gen.CSPOnGraph(rng, g, 3, 0.3) },
		"coloring":       func() *csp.Instance { return gen.Coloring(gen.RandomGraph(rng, 8, 0.4), 3) },
		"queens":         func() *csp.Instance { return gen.NQueens(5) },
		"pigeonhole":     func() *csp.Instance { return gen.Pigeonhole(5, 4) },
		"quasigroup":     func() *csp.Instance { return gen.Quasigroup(rng, 4, 6) },
		"phase":          func() *csp.Instance { return gen.PhaseTransition(rng, 10, 4, 0.3) },
		"acyclic":        func() *csp.Instance { return gen.AcyclicCSP(rng, 6, 4, 3, 0.4) },
		"closed-bool":    func() *csp.Instance { return boolRel(schaefer.Class(rng.Intn(6))) },
	}
	out := map[string][]*csp.Instance{}
	for name, g := range draw {
		for i := 0; i < 4; i++ {
			p := g()
			out[name] = append(out[name], p)
			q := p.Clone()
			q.Domains = make([][]int, q.Vars)
			q.Domains[0] = []int{q.Dom - 1, 0, q.Dom - 1}
			out[name] = append(out[name], q)
		}
	}
	return out
}

// TestCanonicalHashIsFNVOfCanonical checks, on every generator family and
// every testdata instance, that Canonical produces the reference encoder's
// bytes and CanonicalHash is FNV-1a of exactly those bytes; the testdata
// hashes are also pinned, since they place keys on the cspr ring.
func TestCanonicalHashIsFNVOfCanonical(t *testing.T) {
	check := func(name string, p *csp.Instance) {
		t.Helper()
		enc := Canonical(p)
		if want := referenceCanonical(p); !bytes.Equal(enc, want) {
			t.Fatalf("%s: Canonical %q, reference %q", name, enc, want)
		}
		h := fnv.New64a()
		h.Write(enc)
		if got, want := CanonicalHash(p), h.Sum64(); got != want {
			t.Fatalf("%s: CanonicalHash %#x, FNV-1a of Canonical %#x", name, got, want)
		}
	}
	for name, insts := range canonicalFamilies() {
		for _, p := range insts {
			check(name, p)
		}
	}
	golden := map[string]uint64{
		"acyclic_wide.csp": 0xbd849e1f4be2ff09,
		"sample.csp":       0x63f1b99ce7103e6c,
	}
	files, err := filepath.Glob("../../testdata/*.csp")
	if err != nil || len(files) != len(golden) {
		t.Fatalf("testdata instances %v (%v), want the %d pinned", files, err, len(golden))
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		check(path, p)
		if got, want := CanonicalHash(p), golden[filepath.Base(path)]; got != want {
			t.Errorf("%s: CanonicalHash %#x, pinned %#x", path, got, want)
		}
	}
}

// canonicalAgrees fails unless Canonical(p) is the reference encoder's
// bytes and CanonicalHash(p) is FNV-1a of them.
func canonicalAgrees(t *testing.T, name string, p *csp.Instance) {
	t.Helper()
	enc := Canonical(p)
	if want := referenceCanonical(p); !bytes.Equal(enc, want) {
		t.Fatalf("%s: Canonical differs from the reference encoder:\n got %q\nwant %q", name, enc, want)
	}
	h := fnv.New64a()
	h.Write(enc)
	if got, want := CanonicalHash(p), h.Sum64(); got != want {
		t.Fatalf("%s: CanonicalHash %#x, FNV-1a of Canonical %#x", name, got, want)
	}
}

// randomConstraints adds m constraints of arity 1-5 (scopes may repeat a
// variable) with rows random rows each, values in [0, dom).
func randomConstraints(rng *rand.Rand, p *csp.Instance, m, rows int) {
	for c := 0; c < m; c++ {
		arity := 1 + rng.Intn(5)
		scope := make([]int, arity)
		for i := range scope {
			scope[i] = rng.Intn(p.Vars)
		}
		tab := csp.NewTable(arity)
		row := make([]int, arity)
		for r := 0; r < rows; r++ {
			for i := range row {
				row[i] = rng.Intn(p.Dom)
			}
			tab.Add(row)
		}
		p.MustAddConstraint(scope, tab)
	}
}

// TestCanonicalRankKeysMatchReference checks the rank-keyed encoder against
// the reference encoder (which renders and byte-sorts every row) across
// domain sizes where decimal byte order and numeric order part: at dom 11
// the codes "10 " sort before "2 ". Each dom runs with few rows (the ranks
// of the values present, found by search) and with at least dom cells (a
// rank table indexed by value). At 2^16 values a row of arity 5 needs 80
// bits, so its constraint takes the rendered path beside keyed ones (with
// ranks of the values present too, once 2^13 of them occur).
func TestCanonicalRankKeysMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dom := range []int{9, 10, 11, 100, 1000, 1 << 16} {
		for _, dense := range []bool{false, true} {
			p := csp.NewInstance(6, dom)
			if dom < 30 {
				randomConstraints(rng, p, 1, 1) // at most 5 cells
			} else {
				randomConstraints(rng, p, min(8, dom/30), 6) // at most dom cells
			}
			if dense {
				// A unary table of every value fills the cells to dom.
				tab := csp.NewTable(1)
				for _, v := range rng.Perm(dom) {
					tab.Add([]int{v})
				}
				p.MustAddConstraint([]int{rng.Intn(6)}, tab)
				randomConstraints(rng, p, 1, dom/5+1)
			}
			if dom == 1<<16 {
				// 2,000 rows of arity 5 hold over 2^13 distinct values, so
				// even ranked by the values present a key needs 5·14 bits.
				tab := csp.NewTable(5)
				row := make([]int, 5)
				for r := 0; r < 2000; r++ {
					for i := range row {
						row[i] = rng.Intn(dom)
					}
					tab.Add(row)
				}
				p.MustAddConstraint([]int{4, 2, 0, 1, 2}, tab)
			}
			name := fmt.Sprintf("dom %d (dense %v)", dom, dense)
			if rt := newRankTable(p); (rt.dense != nil) != dense {
				t.Fatalf("%s: dense rank table %v", name, rt.dense != nil)
			}
			canonicalAgrees(t, name, p)
			if dom == 1<<16 {
				rt, rendered := newRankTable(p), false
				for _, c := range p.Constraints {
					rendered = rendered || len(c.Scope)*rt.width > 64
				}
				if !rendered {
					t.Fatalf("%s: no constraint's keys overflow 64 bits", name)
				}
			}
		}
	}
}

// TestCanonicalRankKeysOddValues covers what the parser never produces but
// an Instance may hold: values outside [0, dom), negative ones among them
// ("-" sorts before every digit), and codes longer than a word.
func TestCanonicalRankKeysOddValues(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, spread := range []int{3, 30, 1e12} {
		p := csp.NewInstance(5, 4)
		for c := 0; c < 6; c++ {
			arity := 1 + rng.Intn(3)
			tab := csp.NewTable(arity)
			for r := 0; r < 12; r++ {
				row := make([]int, arity)
				for i := range row {
					row[i] = rng.Intn(2*spread) - spread
				}
				tab.Add(row)
			}
			p.Constraints = append(p.Constraints, &csp.Constraint{Scope: rng.Perm(5)[:arity], Table: tab})
		}
		canonicalAgrees(t, fmt.Sprintf("values in ±%d", spread), p)
	}
}

// TestCanonicalHashHugeDomain hashes a 31-byte body declaring 2^20 values
// and using one. The rank table must cost what the cells cost, not what
// dom does: a table over every value would allocate megabytes and take
// milliseconds here.
func TestCanonicalHashHugeDomain(t *testing.T) {
	p, err := ParseBytes([]byte("vars 1\ndom 1048576\ncon 0 : 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	canonicalAgrees(t, "huge dom", p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		CanonicalHash(p)
		best = min(best, time.Since(start))
	}
	runtime.ReadMemStats(&after)
	if alloc := (after.TotalAlloc - before.TotalAlloc) / 5; alloc > 4<<10 || best > time.Millisecond {
		t.Errorf("CanonicalHash of a one-cell instance over 2^20 values: %d bytes, %v; want <= 4 KB and <= 1 ms", alloc, best)
	}
}
