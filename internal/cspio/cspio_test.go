package cspio

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"csdb/internal/csp"
	"csdb/internal/gen"
)

func TestParseBasic(t *testing.T) {
	text := `
# a 2-coloring of a triangle (unsatisfiable)
vars 3
dom 2
names a b c
con 0 1 : 0 1 | 1 0
con 1 2 : 0 1 | 1 0
con 2 0 : 0 1 | 1 0
`
	p, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if p.Vars != 3 || p.Dom != 2 || len(p.Constraints) != 3 {
		t.Fatalf("shape wrong: %+v", p)
	}
	if p.VarName(2) != "c" {
		t.Fatalf("names not read: %q", p.VarName(2))
	}
	if csp.Solve(p, csp.Options{}).Found {
		t.Fatal("triangle 2-colored")
	}
}

func TestParseDomOf(t *testing.T) {
	text := "vars 2\ndom 3\ndom_of 0 : 2\ncon 0 1 : 2 0 | 1 1\n"
	p, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	res := csp.Solve(p, csp.Options{})
	if !res.Found || res.Solution[0] != 2 || res.Solution[1] != 0 {
		t.Fatalf("dom_of ignored: %+v", res)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                             // missing directives
		"vars 2",                       // missing dom
		"vars x\ndom 2",                // bad integer
		"vars 2\ndom 2\ncon 0 1",       // missing tuples
		"vars 2\ndom 2\ncon 0 1 : 0",   // arity mismatch
		"vars 2\ndom 2\nfrob 1",        // unknown directive
		"vars 1\ndom 2\nnames a b",     // wrong name count
		"vars 1\ndom 2\ncon 0 3 : 0 0", // scope out of range... con 0 3 means scope [0,3]
		"vars 2\ndom 2\ndom_of 0 : 5\ncon 0 1 : 0 1 | 1 0\n", // dom_of value out of range
	}
	for _, text := range bad {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Fatalf("accepted %q", text)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		p := gen.ModelB(rng, 3+rng.Intn(3), 2+rng.Intn(3), 0.7, 0.4)
		var buf bytes.Buffer
		if err := Format(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := Parse(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, buf.String())
		}
		if q.Vars != p.Vars || q.Dom != p.Dom || len(q.Constraints) != len(p.Constraints) {
			t.Fatalf("trial %d: round trip changed shape", trial)
		}
		if csp.Solve(p, csp.Options{}).Found != csp.Solve(q, csp.Options{}).Found {
			t.Fatalf("trial %d: round trip changed satisfiability", trial)
		}
	}
}

func TestParseDIMACS(t *testing.T) {
	text := `c sample
p edge 4 3
e 1 2
e 2 3
e 3 4
`
	g, err := ParseDIMACS(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.NumEdges() != 3 || !g.HasEdge(0, 1) {
		t.Fatalf("DIMACS parse wrong: n=%d m=%d", g.N(), g.NumEdges())
	}
	bad := []string{
		"e 1 2",             // edge before header
		"p edge x 3",        // bad count
		"p edge 2 1\ne 1 5", // out of range
		"p edge 2 1\nq 1 2", // unknown line
		"",                  // empty
	}
	for _, b := range bad {
		if _, err := ParseDIMACS(strings.NewReader(b)); err == nil {
			t.Fatalf("accepted %q", b)
		}
	}
}

// TestParseErrorMessages pins every parse error's text and line number to
// what the reference parser reports for the same input, and the dom_of
// range rejection, which the reference lacks, to its own text.
func TestParseErrorMessages(t *testing.T) {
	for _, text := range []string{
		"",
		"vars 2",
		"vars x\ndom 2",
		"vars 2 3\ndom 2",
		"vars -1\ndom 2",
		"vars 2\ndom 0",
		"vars 2\ndom\n",
		"vars 2\ndom 2\n\n# note\ncon 0 1",
		"vars 2\ndom 2\ncon : 0 1",
		"vars 2\ndom 2\ncon 0 x : 0 1",
		"vars 2\ndom 2\ncon 0 1 : 0 1 | 1",
		"vars 2\ndom 2\ncon 0 1 : 0 1 | 1 y | 0",
		"vars 2\ndom 2\ncon 0 1 : 0 1 : 1 0",
		"vars 2\ndom 2\nfrob 1",
		"vars 1\ndom 2\nnames a b",
		"vars 1\ndom 2\ncon 0 3 : 0 0",
		"vars 1\ndom 2\ncon 0 : 2",
		"vars 2\ndom 2\ndom_of 0",
		"vars 2\ndom 2\ndom_of 0 1 : 0",
		"vars 2\ndom 2\ndom_of x : 0",
		"vars 2\ndom 2\ndom_of 0 :",
		"vars 2\ndom 2\ndom_of 0 : 0|1",
		"vars 2\ndom 2\ndom_of 7 : 0",
		"vars 2\ndom 99999999999999999999",
	} {
		_, got := ParseBytes([]byte(text))
		_, want := referenceParse(strings.NewReader(text))
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("%q: error %v, reference %v", text, got, want)
		}
	}
	const text = "vars 2\ndom 2\ncon 0 1 : 0 1 | 1 0\ndom_of 1 : 1\n# x\ndom_of 0 : 1 2\n"
	_, err := ParseBytes([]byte(text))
	if want := "cspio: line 6: dom_of value 2 outside [0,2)"; err == nil || err.Error() != want {
		t.Errorf("dom_of range: error %v, want %q", err, want)
	}
}

// TestParseAllocations is the allocation guard on the request front end:
// parsing a ~4 KB instance must not allocate a fixed-size line buffer.
// The bufio.Scanner parser allocated about 1.26 MB per call.
func TestParseAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	if err := Format(&buf, gen.ModelB(rng, 12, 6, 0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	if n := len(body); n < 3000 || n > 6000 {
		t.Fatalf("fixture is %d bytes, want about 4 KB", n)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Parse(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Parse of a %d-byte body: %d KB allocated", len(body), per>>10)
	if per > 256<<10 {
		t.Fatalf("Parse of a %d-byte body allocates %d KB, want <= 256 KB", len(body), per>>10)
	}
}

// TestParseBarFloodAllocations bounds what a constraint line of bare row
// separators costs. A table is sized once from the rows its line holds, so
// a megabyte of '|' around no row, or around two, must allocate a few
// hundred bytes (256 and 320 measured): sizing it by the separators would
// allocate eight bytes of values and four of index per separator.
// TotalAlloc counts every goroutine's allocations, so the parse's own is
// the least delta over a few runs: other packages' tests share the machine
// and the runtime, and any one window may catch their allocations too.
func TestParseBarFloodAllocations(t *testing.T) {
	bars := strings.Repeat("|", 1<<20)
	for _, body := range []string{
		"vars 1\ndom 2\ncon 0 : " + bars + "\n",
		"vars 1\ndom 2\ncon 0 : 1 " + bars + " 0\n",
	} {
		b := []byte(body)
		var p *csp.Instance
		alloc := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			q, err := ParseBytes(b)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			p, alloc = q, min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%d-byte bar flood with %d rows: %d bytes allocated", len(body), p.Constraints[0].Table.Len(), alloc)
		if alloc > 4<<10 {
			t.Errorf("%d-byte bar flood with %d rows: %d bytes allocated, want <= 4 KB",
				len(body), p.Constraints[0].Table.Len(), alloc)
		}
	}
}

// TestParseRejectsCraftedCollisionsFast parses a body of rows crafted to
// share one word-wise FNV-1a hash, (a, ((offset^a)·prime) ^ x) for
// a = 0, 1, ...: values no dom admits, which an index keyed by an unkeyed
// word hash would pile into one probe run, n²/2 row compares before the
// instance is checked. The parser must reject the first such value as it
// reads it, so the body costs no more than a plain body of as many rows.
func TestParseRejectsCraftedCollisionsFast(t *testing.T) {
	const n = 20000
	const offset, prime, x = 14695981039346656037, 1099511628211, 0x5bd1e9955bd1e995
	second := func(a int) int { return int((offset^uint64(a))*prime ^ x) }
	crafted := []byte("vars 2\ndom 2\ncon 0 1 :")
	plain := []byte("vars 2\ndom 200\ncon 0 1 :")
	for a := 0; a < n; a++ {
		crafted = fmt.Appendf(crafted, " %d %d |", a, second(a))
		plain = fmt.Appendf(plain, " %d %d |", a%200, a/200)
	}
	fastest := func(body []byte, wantErr bool) time.Duration {
		best := time.Duration(1 << 62)
		for range 3 {
			start := time.Now()
			_, err := ParseBytes(body)
			best = min(best, time.Since(start))
			if (err != nil) != wantErr {
				t.Fatalf("ParseBytes error %v, want error: %v", err, wantErr)
			}
		}
		return best
	}
	_, err := ParseBytes(crafted)
	if want := fmt.Sprintf("cspio: line 3: con value %d outside [0,%d)", second(0), MaxVarsDom); err == nil || err.Error() != want {
		t.Fatalf("crafted body: error %v, want %q", err, want)
	}
	c, p := fastest(crafted, true), fastest(plain, false)
	t.Logf("%d crafted rows: %v; %d plain rows: %v", n, c, n, p)
	if c > p {
		t.Fatalf("%d crafted rows take %v to reject, over the %v a plain body of as many rows takes to parse", n, c, p)
	}
}

// TestParseDIMACSErrorMessages pins the DIMACS errors' text.
func TestParseDIMACSErrorMessages(t *testing.T) {
	for text, want := range map[string]string{
		"e 1 2":                    "cspio: edge before header",
		"p edge x 3":               `cspio: bad vertex count "x"`,
		"p edge":                   `cspio: bad DIMACS header "p edge"`,
		"p col 3 1":                `cspio: bad DIMACS header "p col 3 1"`,
		"p edge 2 1\ne 1 5":        `cspio: bad edge "e 1 5"`,
		"p edge 2 1\n  e 1 2 3 \r": `cspio: bad edge line "e 1 2 3"`,
		"p edge 2 1\nq 1 2":        `cspio: unknown DIMACS line "q 1 2"`,
		"c only a comment\n":       "cspio: missing DIMACS header",
	} {
		if _, err := ParseDIMACS(strings.NewReader(text)); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", text, err, want)
		}
	}
}

// randomBody renders m random binary constraints over vars variables of a
// dom-value domain, each of up to rows rows, in the text format.
func randomBody(rng *rand.Rand, vars, dom, m, rows int) []byte {
	p := csp.NewInstance(vars, dom)
	for range m {
		tab := csp.NewTable(2)
		for range 1 + rng.Intn(rows) {
			tab.Add([]int{rng.Intn(dom), rng.Intn(dom)})
		}
		p.MustAddConstraint([]int{rng.Intn(vars), rng.Intn(vars)}, tab)
	}
	var buf bytes.Buffer
	if err := Format(&buf, p); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestParseAllocs pins the parser's allocations per body: its tables,
// constraints, indexes and values are carved from one array of each kind,
// so the count does not grow with the constraints a body holds.
func TestParseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{10, 1000} {
		body := randomBody(rng, 50, 8, m, 20)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ParseBytes(body); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d constraints, %d bytes: %.0f allocations", m, len(body), allocs)
		if allocs > 32 {
			t.Errorf("%d constraints: %.0f allocations per parse, want <= 32", m, allocs)
		}
	}
}

// TestParsedTablesAreSeparate adds a row to each table of a parsed instance
// in turn: the tables share their parse's arrays, each capped, so the row
// lands in the table it was added to and every other table keeps its rows.
func TestParsedTablesAreSeparate(t *testing.T) {
	p, err := ParseBytes([]byte("vars 3\ndom 3\ncon 0 1 : 0 1 | 1 0 | 0 1\ncon 1 2 : 2 1\ncon 2 : 1 | 0\ncon 0 2 :\ncon 1 : 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*csp.Table, len(p.Constraints))
	scopes := make([][]int, len(p.Constraints))
	for i, c := range p.Constraints {
		want[i], scopes[i] = c.Table.Clone(), slices.Clone(c.Scope)
	}
	for i, c := range p.Constraints {
		row := make([]int, c.Table.Arity())
		for j := range row {
			row[j] = 2
		}
		if !c.Table.Add(row) {
			t.Fatalf("constraint %d: row %v reported present", i, row)
		}
		want[i].Add(row)
		for j, d := range p.Constraints {
			if !slices.EqualFunc(d.Table.Tuples(), want[j].Tuples(), slices.Equal) || !slices.Equal(d.Scope, scopes[j]) {
				t.Fatalf("after an Add to constraint %d, constraint %d is %v %v, want %v %v",
					i, j, d.Scope, d.Table.Tuples(), scopes[j], want[j].Tuples())
			}
		}
	}
}

// TestParseDoesNotRetainBody parses a body and then overwrites it, as a
// server recycling its read buffers does: the instance must not change.
func TestParseDoesNotRetainBody(t *testing.T) {
	body := []byte("vars 3\ndom 3\nnames a b c\ndom_of 1 : 0 2\ncon 0 1 : 0 1 | 1 0 | 0 1\ncon 1 2 : 2 2\ncon 2 : 1 | 0\n")
	p, err := ParseBytes(body)
	if err != nil {
		t.Fatal(err)
	}
	var before, after bytes.Buffer
	if err := Format(&before, p); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = '9'
	}
	if err := Format(&after, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("overwriting the body changed the instance:\nbefore %q\nafter  %q", before.String(), after.String())
	}
}
