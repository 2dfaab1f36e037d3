package dispatch

import (
	"bytes"
	"context"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/cspio"
)

// Seed inputs covering every structural class the dispatcher routes, in the
// cspio text format the fuzzer mutates. The same strings are checked into
// testdata/fuzz/FuzzDispatch so `go test -fuzz` starts from them too.
var fuzzSeeds = []string{
	// tree: a binary not-equal chain
	"vars 3\ndom 2\ncon 0 1 : 0 1 | 1 0\ncon 1 2 : 0 1 | 1 0\n",
	// schaefer: a Boolean XOR triangle (affine)
	"vars 3\ndom 2\ncon 0 1 : 0 1 | 1 0\ncon 1 2 : 0 1 | 1 0\ncon 2 0 : 0 1 | 1 0\n",
	// acyclic: a ternary constraint with a hanging binary ear
	"vars 4\ndom 3\ncon 0 1 2 : 0 1 2 | 1 2 0 | 2 0 1\ncon 2 3 : 0 1 | 1 2\n",
	// width: a not-equal triangle over a 3-valued domain (treewidth 2)
	"vars 3\ndom 3\ncon 0 1 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 1 2 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 2 0 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n",
	// hard: K5 3-coloring (treewidth 4 exceeds the budget; UNSAT)
	"vars 5\ndom 3\n" +
		"con 0 1 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 0 2 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 0 3 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 0 4 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 1 2 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 1 3 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 1 4 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 2 3 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 2 4 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n" +
		"con 3 4 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1\n",
	// edge cases: unconstrained, empty-domain restriction, repeated scope
	"vars 2\ndom 2\n",
	"vars 2\ndom 2\ndom_of 0 :\ncon 0 1 : 0 0 | 1 1\n",
	"vars 2\ndom 2\ncon 0 0 : 0 0 | 1 0\n",
}

// FuzzDispatch is the grammar-aware differential fuzzer: any parseable
// instance small enough to solve exhaustively must get the same verdict
// from the dispatcher and from the complete search engine, and any SAT
// answer must satisfy the instance. The analyzer is shared across inputs,
// as it is in cspd.
func FuzzDispatch(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	an := NewAnalyzer(0, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := cspio.Parse(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		// Keep the oracle exhaustive-search cheap and the portfolio fallback
		// bounded: tiny instances only.
		if p.Vars > 10 || p.Dom < 1 || p.Dom > 3 || len(p.Constraints) > 12 {
			t.Skip()
		}
		rows := 0
		for _, con := range p.Constraints {
			if len(con.Scope) > 4 {
				t.Skip()
			}
			rows += con.Table.Len()
		}
		if rows > 2048 {
			t.Skip()
		}

		out := an.Solve(context.Background(), p)
		want := csp.Solve(p, csp.Options{})
		if out.Aborted || want.Aborted {
			t.Skip()
		}
		if out.Found != want.Found {
			t.Fatalf("dispatcher (route %v) found=%v, search found=%v\ninput:\n%s",
				out.Route, out.Found, want.Found, data)
		}
		if out.Found && !p.Satisfies(out.Solution) {
			t.Fatalf("dispatcher returned non-solution %v\ninput:\n%s", out.Solution, data)
		}
	})
}
