package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csdb/internal/obs"
)

// withObs turns metric recording on for one test, restoring the previous
// state afterwards. Counters are process-global, so assertions use deltas.
func withObs(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionUnlimited(t *testing.T) {
	for _, a := range []*Admission{nil, NewAdmission(0, 0), NewAdmission(-1, 5)} {
		for i := 0; i < 100; i++ {
			release, err := a.Acquire(context.Background())
			if err != nil {
				t.Fatalf("unlimited gate refused: %v", err)
			}
			release()
		}
		if a.InFlight() != 0 || a.Queued() != 0 {
			t.Fatalf("unlimited gate tracking state: inflight=%d queued=%d", a.InFlight(), a.Queued())
		}
	}
}

func TestAdmissionShedsWhenFull(t *testing.T) {
	withObs(t)
	shedBefore := obsShed.Load()
	a := NewAdmission(2, 0)
	r1, err1 := a.Acquire(context.Background())
	r2, err2 := a.Acquire(context.Background())
	if err1 != nil || err2 != nil {
		t.Fatalf("free slots refused: %v %v", err1, err2)
	}
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("full gate with no queue: err=%v, want ErrShed", err)
	}
	if got := obsShed.Load() - shedBefore; got != 1 {
		t.Fatalf("shed counter delta = %d, want 1", got)
	}
	r1()
	r2()
	if release, err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("released slot refused: %v", err)
	} else {
		release()
	}
}

func TestAdmissionQueueWaitAndShed(t *testing.T) {
	withObs(t)
	shedBefore, waitBefore := obsShed.Load(), obsWaitNs.Series("queued").Count()
	a := NewAdmission(1, 1)
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{})
	go func() {
		release, err := a.Acquire(context.Background())
		if err != nil {
			t.Errorf("queued waiter failed: %v", err)
			close(admitted)
			return
		}
		close(admitted)
		release()
	}()
	waitFor(t, "waiter to queue", func() bool { return a.Queued() == 1 })
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("overflow past the queue: err=%v, want ErrShed", err)
	}
	hold()
	<-admitted
	waitFor(t, "queue to drain", func() bool { return a.Queued() == 0 })
	if got := obsShed.Load() - shedBefore; got != 1 {
		t.Fatalf("shed counter delta = %d, want 1", got)
	}
	if got := obsWaitNs.Series("queued").Count() - waitBefore; got != 1 {
		t.Fatalf("queue-wait observations delta = %d, want 1 (only the queued waiter)", got)
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := NewAdmission(1, 4)
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		done <- err
	}()
	waitFor(t, "waiter to queue", func() bool { return a.Queued() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	waitFor(t, "queue to empty after cancel", func() bool { return a.Queued() == 0 })
}

// TestAdmissionFIFO pins the wait-queue ordering: waiters enter one at a
// time and must be admitted in arrival order as slots free up.
func TestAdmissionFIFO(t *testing.T) {
	const waiters = 6
	a := NewAdmission(1, waiters)
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := a.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			release()
		}()
		// Admit to the queue strictly one at a time so arrival order is
		// well-defined.
		waitFor(t, "waiter to queue", func() bool { return a.Queued() == i+1 })
	}
	hold()
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("admission order: got waiter %d at position %d", got, want)
		}
		want++
	}
}

// TestAdmissionConcurrencyBound hammers the gate and checks the in-flight
// invariant from inside the critical sections.
func TestAdmissionConcurrencyBound(t *testing.T) {
	const maxInflight = 4
	a := NewAdmission(maxInflight, 1000)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := a.Acquire(context.Background())
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			cur.Add(-1)
			release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > maxInflight {
		t.Fatalf("in-flight peak %d exceeds bound %d", p, maxInflight)
	}
	if a.InFlight() != 0 || a.Queued() != 0 {
		t.Fatalf("gate not drained: inflight=%d queued=%d", a.InFlight(), a.Queued())
	}
}

// TestAdmissionWaitVec pins the labeled wait histogram: a free-slot
// acquisition records under outcome=fast, a queued one under outcome=queued.
func TestAdmissionWaitVec(t *testing.T) {
	withObs(t)
	fastSeries := obsWaitNs.Series("fast")
	queuedSeries := obsWaitNs.Series("queued")
	fast0, queued0 := fastSeries.Count(), queuedSeries.Count()

	a := NewAdmission(1, 1)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d := obsWaitNs.Series("fast").Count() - fast0; d != 1 {
		t.Fatalf("fast delta = %d, want 1", d)
	}

	// Second acquirer queues until the first releases.
	done := make(chan struct{})
	go func() {
		r2, err := a.Acquire(context.Background())
		if err == nil {
			r2()
		}
		close(done)
	}()
	waitFor(t, "second acquirer to queue", func() bool { return a.Queued() == 1 })
	release()
	<-done
	if d := obsWaitNs.Series("queued").Count() - queued0; d != 1 {
		t.Fatalf("queued delta = %d, want 1", d)
	}
}

// TestAdmissionEstimateWait pins the shed-path backoff estimate: an idle or
// unlimited gate predicts zero, queued acquisitions feed the EWMA, and the
// prediction scales with the number of callers already in line.
func TestAdmissionEstimateWait(t *testing.T) {
	if (*Admission)(nil).EstimateWait() != 0 {
		t.Fatal("nil gate predicted a nonzero wait")
	}
	if NewAdmission(0, 0).EstimateWait() != 0 {
		t.Fatal("unlimited gate predicted a nonzero wait")
	}
	a := NewAdmission(1, 4)
	if a.EstimateWait() != 0 {
		t.Fatal("gate with no queue history predicted a nonzero wait")
	}

	// Hold the slot so the next acquirers queue for a measurable time.
	const hold = 20 * time.Millisecond
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		r, err := a.Acquire(context.Background())
		if err == nil {
			r()
		}
		close(done)
	}()
	waitFor(t, "acquirer to queue", func() bool { return a.Queued() == 1 })
	time.Sleep(hold)
	release()
	<-done

	est := a.EstimateWait()
	if est < hold/2 {
		t.Fatalf("EstimateWait after ~%v queued wait = %v, want >= %v", hold, est, hold/2)
	}

	// With callers in line, the same EWMA predicts a proportionally longer
	// wait: depth+1 times the per-acquisition estimate.
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := a.Acquire(context.Background())
			if err == nil {
				<-stop
				r()
			}
		}()
	}
	waitFor(t, "two queued callers", func() bool { return a.Queued() == 2 })
	if deep := a.EstimateWait(); deep < 2*est {
		t.Fatalf("EstimateWait with 2 queued = %v, want >= 2x idle estimate %v", deep, est)
	}
	r2()
	close(stop)
	wg.Wait()
}
