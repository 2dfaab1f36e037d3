package csp_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"csdb/internal/csp"
	"csdb/internal/gen"
)

// naiveGAC is the GAC oracle: it keeps a value while some row of every
// constraint on its variable carries it with every other value still in
// its domain, re-scanning every table until nothing changes. It returns the
// surviving domains and false when one of them is empty.
func naiveGAC(p *csp.Instance) ([][]int, bool) {
	live := make([][]bool, p.Vars)
	for v := range live {
		live[v] = make([]bool, p.Dom)
		for _, val := range p.DomainOf(v) {
			if val >= 0 && val < p.Dom {
				live[v][val] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, con := range p.Constraints {
			for i, v := range con.Scope {
				for val := range live[v] {
					if !live[v][val] || supported(con, live, i, val) {
						continue
					}
					live[v][val] = false
					changed = true
				}
			}
		}
	}
	domains := make([][]int, p.Vars)
	for v := range live {
		for val, ok := range live[v] {
			if ok {
				domains[v] = append(domains[v], val)
			}
		}
		if len(domains[v]) == 0 {
			return nil, false
		}
	}
	return domains, true
}

// supported reports whether some row of con carries val at position i and
// only live values elsewhere (including at the other positions of a
// repeated variable).
func supported(con *csp.Constraint, live [][]bool, i, val int) bool {
rows:
	for r := 0; r < con.Table.Len(); r++ {
		row := con.Table.Row(r)
		if row[i] != val {
			continue
		}
		for j, u := range con.Scope {
			if !live[u][row[j]] {
				continue rows
			}
		}
		return true
	}
	return false
}

// randomGACInstance draws constraints of arity 1 to 3 whose scopes may
// repeat a variable, some variables in no constraint, and, in a third of
// the instances, per-variable domains, one of which may be empty.
func randomGACInstance(rng *rand.Rand) *csp.Instance {
	vars, dom := 1+rng.Intn(6), 1+rng.Intn(4)
	p := csp.NewInstance(vars, dom)
	for c := rng.Intn(2 * vars); c > 0; c-- {
		arity := 1 + rng.Intn(3)
		scope := make([]int, arity)
		for i := range scope {
			scope[i] = rng.Intn(vars)
		}
		tab := csp.NewTable(arity)
		row := make([]int, arity)
		for r := rng.Intn(3 * dom * arity); r > 0; r-- {
			for i := range row {
				row[i] = rng.Intn(dom)
			}
			tab.Add(row)
		}
		p.MustAddConstraint(scope, tab)
	}
	if rng.Intn(3) == 0 {
		p.Domains = make([][]int, vars)
		for v := range p.Domains {
			switch rng.Intn(4) {
			case 0: // unrestricted
			case 1:
				p.Domains[v] = []int{}
			default:
				for val := 0; val < dom; val++ {
					if rng.Intn(3) > 0 {
						p.Domains[v] = append(p.Domains[v], val)
					}
				}
			}
		}
	}
	return p
}

// TestGACMatchesNaiveFixpoint holds csp.GAC to the oracle's domains and
// verdicts on random instances with repeated scopes, unary constraints and
// restricted or empty domains, and on the Model B instances the old
// standalone GAC was checked on.
func TestGACMatchesNaiveFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var cases []*csp.Instance
	for range 600 {
		cases = append(cases, randomGACInstance(rng))
	}
	for range 30 {
		cases = append(cases, gen.ModelB(rng, 8, 3, 0.6, 0.4))
	}
	verdicts := map[bool]int{}
	for i, p := range cases {
		want, wantOK := naiveGAC(p)
		got, gotOK, err := csp.GAC(context.Background(), p)
		if err != nil {
			t.Fatalf("#%d: %v", i, err)
		}
		if gotOK != wantOK {
			t.Fatalf("#%d: consistent=%v, oracle %v", i, gotOK, wantOK)
		}
		verdicts[gotOK]++
		for v := range want {
			if !slices.Equal(got[v], want[v]) {
				t.Fatalf("#%d: domain of %d is %v, oracle %v", i, v, got[v], want[v])
			}
		}
	}
	if verdicts[true] < 100 || verdicts[false] < 100 {
		t.Fatalf("verdicts %v: both outcomes must be exercised", verdicts)
	}
	// No variables at all: consistent, with no domains.
	if got, ok, err := csp.GAC(context.Background(), csp.NewInstance(0, 3)); err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty instance: %v %v %v", got, ok, err)
	}
}

func TestGACCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := gen.ModelB(rand.New(rand.NewSource(6)), 10, 3, 0.6, 0.4)
	if _, _, err := csp.GAC(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("GAC on a cancelled context: err %v", err)
	}
}

// cancelAfterPolls is a context whose Err reports Canceled from its
// (after+1)-th call on and counts the calls.
type cancelAfterPolls struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *cancelAfterPolls) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestGACDeadlineMidPropagation: an expired deadline stops GAC, and so
// does a cancellation at any of fifty polls spread over a run, in set-up
// and in propagation alike: the run stops at that poll and reports the
// error.
func TestGACDeadlineMidPropagation(t *testing.T) {
	p := gen.ModelB(rand.New(rand.NewSource(7)), 200, 8, 0.9, 0.45)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	if _, _, err := csp.GAC(ctx, p); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GAC ignored an expired deadline: err %v", err)
	}

	count := &cancelAfterPolls{Context: context.Background(), after: 1 << 62}
	if _, _, err := csp.GAC(count, p); err != nil {
		t.Fatal(err)
	}
	polls := count.calls.Load()
	if polls < 4 {
		t.Fatalf("%d polls: the instance is too small to cancel mid-run", polls)
	}
	for after := int64(0); after < polls; after += max(1, polls/50) {
		ctx := &cancelAfterPolls{Context: context.Background(), after: after}
		if _, _, err := csp.GAC(ctx, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: err %v", after+1, polls, err)
		}
		// The run stops at the poll that sees the cancellation; GAC then
		// reads the error once more to return it.
		if got := ctx.calls.Load(); got != after+2 {
			t.Fatalf("cancelled at poll %d of %d: Err called %d times", after+1, polls, got)
		}
	}
}
