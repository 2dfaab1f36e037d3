package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrShed is returned by Admission.Acquire when both the solve slots and the
// wait queue are full: the caller should be rejected immediately (load shed)
// rather than left to pile up.
var ErrShed = errors.New("serve: admission queue full")

// Admission is a bounded-concurrency gate with a bounded wait queue. Up to
// maxInflight acquisitions proceed at once; the next maxQueue callers wait
// their turn in FIFO order (the runtime wakes channel senders in queue
// order); everyone beyond that is shed with ErrShed.
//
// A nil *Admission admits everything immediately, so the daemon can disable
// admission control without branching at call sites.
type Admission struct {
	sem      chan struct{}
	maxQueue int64
	queued   atomic.Int64
	// waitEWMA tracks the recent per-acquisition queue wait (ns) as an
	// exponentially weighted moving average (new = (3·old + sample)/4),
	// updated once per queued acquisition. It feeds EstimateWait, which the
	// daemon turns into an honest Retry-After on the shed path.
	waitEWMA atomic.Int64
}

// NewAdmission returns a gate with the given bounds. maxInflight <= 0 means
// unlimited (the gate admits everything and never queues); maxQueue <= 0
// means no waiting — when all slots are busy, callers are shed at once.
func NewAdmission(maxInflight, maxQueue int) *Admission {
	if maxInflight <= 0 {
		return &Admission{}
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admission{sem: make(chan struct{}, maxInflight), maxQueue: int64(maxQueue)}
}

// Acquire claims a solve slot, waiting in the queue if necessary. On success
// it returns a release function that must be called exactly once when the
// work is done. It fails with ErrShed when the queue is full and with
// ctx.Err() when the context is cancelled while waiting.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if a == nil || a.sem == nil {
		return func() {}, nil
	}
	// Fast path: a free slot and nobody already waiting (jumping past
	// queued waiters would break FIFO ordering).
	if a.queued.Load() == 0 {
		select {
		case a.sem <- struct{}{}:
			obsWaitNs.Observe(0, "fast")
			return a.release, nil
		default:
		}
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		obsShed.Inc()
		return nil, ErrShed
	}
	obsQueueDepth.Add(1)
	start := time.Now()
	defer func() {
		a.queued.Add(-1)
		obsQueueDepth.Add(-1)
		wait := time.Since(start).Nanoseconds()
		a.noteWait(wait)
		obsWaitNs.Observe(wait, "queued")
	}()
	select {
	case a.sem <- struct{}{}:
		return a.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (a *Admission) release() { <-a.sem }

// noteWait folds one queued-acquisition wait into the EWMA. The load/store
// pair is deliberately not a CAS loop: concurrent updates may drop a sample,
// which is harmless for a smoothed estimate and keeps the queued path cheap.
func (a *Admission) noteWait(ns int64) {
	prev := a.waitEWMA.Load()
	if prev == 0 {
		a.waitEWMA.Store(ns)
		return
	}
	a.waitEWMA.Store((3*prev + ns) / 4)
}

// EstimateWait predicts how long a caller shed right now would have had to
// wait for a slot: the recent per-acquisition queue wait times the line it
// would have stood behind (current queue depth plus itself). Zero when the
// gate is unlimited or nothing has ever queued — the caller should fall back
// to its own floor.
func (a *Admission) EstimateWait() time.Duration {
	if a == nil || a.sem == nil {
		return 0
	}
	return time.Duration(a.waitEWMA.Load() * (a.queued.Load() + 1))
}

// InFlight returns the number of currently held slots (0 for an unlimited
// gate, which does not track holders).
func (a *Admission) InFlight() int {
	if a == nil || a.sem == nil {
		return 0
	}
	return len(a.sem)
}

// Queued returns the number of callers currently waiting for a slot.
func (a *Admission) Queued() int {
	if a == nil {
		return 0
	}
	return int(a.queued.Load())
}
