package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunOnSampleGraphs(t *testing.T) {
	graphs := []string{"../../testdata/c5.graph", "../../testdata/k2.graph"}
	for _, tc := range []struct {
		k    int
		want string
	}{
		// With 2 pebbles: Duplicator wins.
		{2, `Duplicator wins the existential 2-pebble game (largest winning strategy: 41 partial homomorphisms)
strong 2-consistency can be established (Theorem 5.6)
no homomorphism exists
1-consistent: true
2-consistent: true
`},
		// C5 vs K2 with 3 pebbles: Spoiler wins (odd cycle).
		{3, `Spoiler wins the existential 3-pebble game
strong 3-consistency cannot be established; no homomorphism exists
no homomorphism exists
1-consistent: true
2-consistent: true
3-consistent: false
`},
	} {
		var out strings.Builder
		if err := run(&out, tc.k, graphs); err != nil {
			t.Fatalf("run k=%d: %v", tc.k, err)
		}
		if out.String() != tc.want {
			t.Errorf("run k=%d printed\n%s\nwant\n%s", tc.k, out.String(), tc.want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, 3, []string{"../../testdata/c5.graph"}); err == nil {
		t.Fatal("single file accepted")
	}
	if err := run(io.Discard, 3, []string{"../../testdata/c5.graph", "/nonexistent"}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run(io.Discard, 0, []string{"../../testdata/c5.graph", "../../testdata/k2.graph"}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestLoadGraph(t *testing.T) {
	g, err := loadGraph("../../testdata/c5.graph")
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 5 || g.Rel("E").Len() != 10 {
		t.Fatalf("C5 parsed wrong: n=%d edges=%d", g.Size(), g.Rel("E").Len())
	}
}
