// Package serve is the production-serving layer of the solver daemon: the
// pieces that stand between the HTTP surface and the worst-case-intractable
// solver engine so that heavy repeated traffic is survivable.
//
//   - Admission bounds concurrent engine work with a solve semaphore and a
//     bounded FIFO wait queue; when the queue is full, callers are shed
//     immediately (the daemon turns that into 429 + Retry-After) instead of
//     piling up until the process collapses.
//   - Cache is an LRU of fully-computed solve responses keyed by an
//     order-insensitive instance digest (internal/cspio) plus the strategy
//     knobs, so an instance is never solved twice while its result is warm.
//   - Group is a singleflight: concurrent identical requests collapse onto
//     one engine solve whose result every caller shares.
//
// All three record into the shared internal/obs registry under the
// cspd.admit.* and cspd.cache.* names and are safe for concurrent use.
// Cache and Admission are nil-safe so the daemon can disable either with a
// flag without branching at every call site.
package serve

import "csdb/internal/obs"

// Registry names. Queue depth is a live gauge. cspd.admit.wait_ns observes
// the wait of every acquisition that is not shed, labeled fast (a free
// slot, wait 0) or queued (a wait its context may have cut short); shed
// acquisitions are counted, not observed. cspd.cache.outcome counts every
// cache lookup and eviction (outcome hit|miss|evict) and feeds csptop's
// hit-rate line.
var (
	obsQueueDepth   = obs.NewGauge("cspd.admit.queue_depth")
	obsShed         = obs.NewCounter("cspd.admit.shed")
	obsWaitNs       = obs.NewHistogramVec("cspd.admit.wait_ns", "outcome")
	obsCacheOutcome = obs.NewCounterVec("cspd.cache.outcome", "outcome")
)
