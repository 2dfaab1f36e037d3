package csp

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// hardTimeout returns a cancellation timeout for hard-instance tests,
// shrunk when the test binary's own deadline is close.
func hardTimeout(t *testing.T, want time.Duration) time.Duration {
	if dl, ok := t.Deadline(); ok {
		if rem := time.Until(dl) / 4; rem < want {
			return rem
		}
	}
	return want
}

func TestPreCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := pigeonhole(12)
	for name, run := range map[string]func() Result{
		"SolveCtx":    func() Result { return SolveCtx(ctx, p, Options{}) },
		"SolveCBJCtx": func() Result { return SolveCBJCtx(ctx, p, Options{}) },
		"JoinSolve":   func() Result { return JoinSolveCtx(ctx, p) },
		"Portfolio":   func() Result { return Portfolio(ctx, p, PortfolioOptions{}).Result },
	} {
		start := time.Now()
		res := run()
		if !res.Aborted || res.Found {
			t.Errorf("%s on a cancelled context: want Aborted, got %+v", name, res)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("%s took %v to notice a pre-cancelled context", name, elapsed)
		}
	}
}

// TestCancellationMidSearch cancels a context while every solver is deep in
// the pigeonhole search and requires Aborted=true well within the amortized
// check interval (generous wall-clock slack for a loaded machine).
func TestCancellationMidSearch(t *testing.T) {
	p := pigeonhole(12)
	timeout := hardTimeout(t, 50*time.Millisecond)
	for name, run := range map[string]func(ctx context.Context) Result{
		"MAC": func(ctx context.Context) Result { return SolveCtx(ctx, p, Options{}) },
		"FC":  func(ctx context.Context) Result { return SolveCtx(ctx, p, Options{Algorithm: FC, VarOrder: Lex}) },
		"CBJ": func(ctx context.Context) Result { return SolveCBJCtx(ctx, p, Options{}) },
		"Portfolio": func(ctx context.Context) Result {
			return Portfolio(ctx, p, PortfolioOptions{}).Result
		},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		start := time.Now()
		res := run(ctx)
		elapsed := time.Since(start)
		cancel()
		if !res.Aborted || res.Found {
			t.Errorf("%s: want Aborted on deadline, got %+v after %v", name, res, elapsed)
		}
		if elapsed > timeout+5*time.Second {
			t.Errorf("%s: took %v to honor a %v deadline", name, elapsed, timeout)
		}
	}
}

// TestCancellationLeaksNoGoroutines races the portfolio on a hard instance
// under a short deadline and asserts the goroutine count returns to its
// baseline: every loser must be joined before the call returns.
func TestCancellationLeaksNoGoroutines(t *testing.T) {
	p := pigeonhole(12)
	before := runtime.NumGoroutine()
	timeout := hardTimeout(t, 40*time.Millisecond)
	for i := 0; i < 5; i++ {
		if res := Portfolio(context.Background(), p, PortfolioOptions{Timeout: timeout}); !res.Aborted {
			t.Fatalf("portfolio run %d: expected abort under %v deadline, got %+v", i, timeout, res.Result)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC() // give finished goroutines a chance to be reaped
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d two seconds after the races", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Property: cancelling at a random instant never corrupts a verdict — a
// race that does return a definitive answer must agree with brute force,
// and any solution must satisfy the instance.
func TestRandomCancellationNeverCorruptsVerdict(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomInstance(rng, 4+rng.Intn(3), 2+rng.Intn(2), 0.7, 0.45)
		want := len(bruteForce(p)) > 0
		ctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(rng.Intn(500))*time.Microsecond)
		defer cancel()
		for _, res := range []Result{
			SolveCtx(ctx, p, Options{}),
			SolveCBJCtx(ctx, p, Options{}),
			JoinSolveCtx(ctx, p),
			Portfolio(ctx, p, PortfolioOptions{}).Result,
		} {
			if res.Aborted {
				continue // cancelled before a verdict: no claim made
			}
			if res.Found != want {
				return false
			}
			if res.Found && !p.Satisfies(res.Solution) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestNodeLimitStillAborts guards the pre-existing NodeLimit contract after
// the context plumbing: limits and contexts compose.
func TestNodeLimitStillAborts(t *testing.T) {
	p := pigeonhole(12)
	res := SolveCtx(context.Background(), p, Options{NodeLimit: 50})
	if !res.Aborted || res.Found {
		t.Fatalf("node-limited search: %+v", res)
	}
	if res.Stats.Nodes != 50 {
		t.Fatalf("node-limited search reports %d nodes, want the limit's 50", res.Stats.Nodes)
	}
}
