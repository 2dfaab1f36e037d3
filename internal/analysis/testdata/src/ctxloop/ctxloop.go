// Package ctxlooptest exercises the ctxloop analyzer: unbounded loops in
// context-taking functions must poll cancellation on every iteration.
package ctxlooptest

import "context"

// badInfinite: for{} with no check anywhere. (true positive)
func badInfinite(ctx context.Context, work chan int) {
	for {
		<-work
	}
}

// badWorklist: condition-only fixpoint loop, check only inside a
// data-dependent branch — the exact bug class. (true positive)
func badWorklist(ctx context.Context, queue []int) {
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v > 100 {
			if ctx.Err() != nil {
				return
			}
		}
	}
}

// badNestedRange: the inner range loop's check does not vouch for the outer
// unbounded loop — the range may be empty. (true positive)
func badNestedRange(ctx context.Context, batches func() []int) {
	for {
		for range batches() {
			if ctx.Err() != nil {
				return
			}
		}
	}
}

// goodDirect: unconditional ctx.Err() per iteration. (negative)
func goodDirect(ctx context.Context, work chan int) {
	for {
		if ctx.Err() != nil {
			return
		}
		<-work
	}
}

// goodSelectDone: a select with a <-ctx.Done() case polls every iteration.
// (negative)
func goodSelectDone(ctx context.Context, work chan int) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-work:
		}
	}
}

// goodAmortized: the amortized-poll idiom — a modulo gate evaluated
// every iteration with the poll on a fixed cadence. (near-miss negative: the
// check is inside an if, but the amortized shape is sanctioned)
func goodAmortized(ctx context.Context, queue []int) error {
	n := 0
	for len(queue) > 0 {
		queue = queue[1:]
		n++
		if n%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// pollHelper checks cancellation; callers of it count as checking.
func pollHelper(ctx context.Context) bool {
	return ctx.Err() != nil
}

// pollHelperIndirect checks transitively through pollHelper.
func pollHelperIndirect(ctx context.Context) bool {
	return pollHelper(ctx)
}

// goodViaHelper: the per-iteration check happens inside a helper, found by
// the checker fixpoint. (near-miss negative: no syntactic ctx.Err in the
// loop)
func goodViaHelper(ctx context.Context, work chan int) {
	for {
		if pollHelperIndirect(ctx) {
			return
		}
		<-work
	}
}

// goodBounded: three-clause counting loop is considered bounded. (near-miss
// negative: no check, but the loop has termination structure)
func goodBounded(ctx context.Context, xs []int) int {
	sum := 0
	for i := 0; i < len(xs); i++ {
		sum += xs[i]
	}
	return sum
}

// goodBothBranches: every path through the if checks. (negative)
func goodBothBranches(ctx context.Context, work chan int, flag bool) {
	for {
		if flag {
			if ctx.Err() != nil {
				return
			}
		} else {
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
		<-work
	}
}

// badCapturedCtx: a function literal capturing ctx is analyzed too; its
// unbounded loop without a check is flagged. (true positive)
func badCapturedCtx(ctx context.Context, work chan int) func() {
	return func() {
		for {
			<-work
		}
	}
}

// noCtx: functions without a context parameter are out of scope even with
// unbounded loops. (near-miss negative)
func noCtx(work chan int) {
	for {
		if <-work == 0 {
			return
		}
	}
}
