package csp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"csdb/internal/csp"
	"csdb/internal/gen"
)

// cbjCase is one instance of the CBJ effort corpus and the variable order
// it is searched in.
type cbjCase struct {
	name  string
	p     *csp.Instance
	order csp.VarOrder
}

// cbjCorpus is a fixed set of instances on which CBJ backjumps: an early
// conflict (the first and last variables clash, with irrelevant ones
// between), E7's near-threshold Model B workload, Model B seeds past and
// before the threshold, phase-transition members of the Hard route's
// family, and quasigroup completion.
func cbjCorpus() []cbjCase {
	var cs []cbjCase
	early := csp.NewInstance(10, 3)
	u := csp.NewTable(1)
	u.Add([]int{1})
	u.Add([]int{2})
	early.MustAddConstraint([]int{0}, u)
	last := csp.NewTable(2)
	last.Add([]int{0, 0})
	early.MustAddConstraint([]int{0, 9}, last)
	cs = append(cs, cbjCase{"early-conflict", early, csp.Lex})

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 15; i++ {
		p := gen.ModelB(rng, 14, 4, 0.5, 0.38)
		for _, ord := range []csp.VarOrder{csp.MRV, csp.Lex} {
			cs = append(cs, cbjCase{fmt.Sprintf("e7-modelB/%d/%v", i, ord), p, ord})
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		p := gen.ModelB(rand.New(rand.NewSource(seed)), 18, 6, 0.4, 0.4)
		cs = append(cs, cbjCase{fmt.Sprintf("modelB/%d/MRV", seed), p, csp.MRV})
	}
	for seed := int64(1); seed <= 3; seed++ {
		p := gen.PhaseTransition(rand.New(rand.NewSource(seed)), 20, 10, 0.3)
		cs = append(cs, cbjCase{fmt.Sprintf("phase/%d", seed), p, csp.MRV})
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := gen.Quasigroup(rand.New(rand.NewSource(seed)), 5, 12)
		for _, ord := range []csp.VarOrder{csp.MRV, csp.Lex} {
			cs = append(cs, cbjCase{fmt.Sprintf("quasigroup/%d/%v", seed, ord), p, ord})
		}
	}
	return cs
}

// cbjEffort is the effort SolveCBJ reported on each corpus instance when
// its conflict sets were maps made per node: reusing the per-depth buffers
// must leave the search tree itself unchanged.
var cbjEffort = []struct {
	name              string
	found             bool
	nodes, backtracks int64
	maxDepth          int
}{
	{"early-conflict", false, 25, 18, 10},
	{"e7-modelB/0/MRV", false, 186, 51, 9},
	{"e7-modelB/0/Lex", false, 750, 221, 10},
	{"e7-modelB/1/MRV", false, 281, 75, 8},
	{"e7-modelB/1/Lex", false, 254, 69, 13},
	{"e7-modelB/2/MRV", false, 129, 35, 7},
	{"e7-modelB/2/Lex", false, 201, 50, 8},
	{"e7-modelB/3/MRV", false, 463, 117, 9},
	{"e7-modelB/3/Lex", false, 926, 280, 11},
	{"e7-modelB/4/MRV", false, 338, 91, 10},
	{"e7-modelB/4/Lex", false, 860, 222, 10},
	{"e7-modelB/5/MRV", false, 309, 86, 10},
	{"e7-modelB/5/Lex", false, 3717, 1147, 14},
	{"e7-modelB/6/MRV", false, 316, 102, 9},
	{"e7-modelB/6/Lex", false, 346, 108, 10},
	{"e7-modelB/7/MRV", false, 182, 56, 8},
	{"e7-modelB/7/Lex", false, 689, 185, 10},
	{"e7-modelB/8/MRV", false, 591, 175, 12},
	{"e7-modelB/8/Lex", false, 6289, 1739, 13},
	{"e7-modelB/9/MRV", false, 241, 63, 9},
	{"e7-modelB/9/Lex", false, 4454, 1226, 13},
	{"e7-modelB/10/MRV", false, 428, 111, 8},
	{"e7-modelB/10/Lex", false, 948, 243, 10},
	{"e7-modelB/11/MRV", false, 507, 133, 9},
	{"e7-modelB/11/Lex", false, 1475, 426, 10},
	{"e7-modelB/12/MRV", false, 225, 63, 9},
	{"e7-modelB/12/Lex", false, 3424, 973, 13},
	{"e7-modelB/13/MRV", false, 256, 63, 6},
	{"e7-modelB/13/Lex", false, 480, 134, 11},
	{"e7-modelB/14/MRV", false, 296, 83, 9},
	{"e7-modelB/14/Lex", false, 708, 202, 11},
	{"modelB/1/MRV", false, 11650, 2058, 13},
	{"modelB/2/MRV", false, 18415, 4073, 12},
	{"modelB/3/MRV", false, 7513, 1352, 14},
	{"modelB/4/MRV", false, 2393, 406, 10},
	{"modelB/5/MRV", false, 10429, 1841, 13},
	{"modelB/6/MRV", false, 20470, 3993, 14},
	{"phase/1", true, 60039, 6746, 20},
	{"phase/2", false, 52313, 5333, 13},
	{"phase/3", false, 3566, 385, 10},
	{"quasigroup/1/MRV", true, 49, 0, 25},
	{"quasigroup/1/Lex", true, 105, 29, 25},
	{"quasigroup/2/MRV", true, 56, 1, 25},
	{"quasigroup/2/Lex", true, 70, 12, 25},
	{"quasigroup/3/MRV", true, 49, 0, 25},
	{"quasigroup/3/Lex", true, 65, 10, 25},
	{"quasigroup/4/MRV", true, 69, 4, 25},
	{"quasigroup/4/Lex", true, 109, 30, 25},
}

// TestCBJEffortUnchanged pins SolveCBJ's verdict, Nodes, Backtracks and
// MaxDepth on the corpus: the conflict-set representation is an
// implementation detail, and CBJ's jumps, hence its tree, must not depend
// on it.
func TestCBJEffortUnchanged(t *testing.T) {
	cs := cbjCorpus()
	if len(cs) != len(cbjEffort) {
		t.Fatalf("corpus has %d instances, want %d", len(cs), len(cbjEffort))
	}
	for i, c := range cs {
		want := cbjEffort[i]
		if c.name != want.name {
			t.Fatalf("instance %d is %q, want %q", i, c.name, want.name)
		}
		res := csp.SolveCBJ(c.p, csp.Options{VarOrder: c.order})
		if res.Found != want.found || res.Aborted {
			t.Errorf("%s: found=%v aborted=%v, want found=%v", c.name, res.Found, res.Aborted, want.found)
		}
		if res.Found && !c.p.Satisfies(res.Solution) {
			t.Errorf("%s: invalid solution", c.name)
		}
		if got := res.Stats; got.Nodes != want.nodes || got.Backtracks != want.backtracks || got.MaxDepth != want.maxDepth {
			t.Errorf("%s: nodes=%d backtracks=%d maxDepth=%d, want %d, %d, %d",
				c.name, got.Nodes, got.Backtracks, got.MaxDepth, want.nodes, want.backtracks, want.maxDepth)
		}
	}
}
