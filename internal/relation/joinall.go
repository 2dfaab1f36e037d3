package relation

import (
	"container/heap"
	"context"
	"sync/atomic"

	"csdb/internal/obs"
)

// Multiway natural join with cost-based, incremental join ordering.
//
// Each relation occupies a slot; every unordered pair of live slots has an
// estimated join cardinality derived from the per-attribute distinct-count
// statistics (see Relation.distinctCounts). The estimates live in a min-heap
// with lazy invalidation: joining a pair kills both slots, and only pairs of
// the freshly created slot with the surviving slots are estimated and
// pushed — O(k) fresh estimates per round instead of re-scanning all O(k²)
// pairs, so planning over k relations costs O(k² log k) total (guarded by
// TestJoinAllPlanningCost and BenchmarkJoinAllPlanning).

// estimateCalls counts cardinality estimations, the dominant unit of
// planning work; the planning-cost regression test asserts it stays O(k²).
var estimateCalls atomic.Int64

// estimateJoin is the cost estimate used for greedy join ordering: the
// textbook |r|·|s| / Π_a max(d_r(a), d_s(a)) over the shared attributes a,
// using real per-column distinct counts. pl is ticked once per estimate and
// once per value the distinct counts visit.
func estimateJoin(pl *Poller, r, s *Relation) (int64, error) {
	estimateCalls.Add(1)
	if err := pl.Tick(); err != nil {
		return 0, err
	}
	est := float64(r.n) * float64(s.n)
	rd, err := r.distinctCounts(pl)
	if err != nil {
		return 0, err
	}
	sd, err := s.distinctCounts(pl)
	if err != nil {
		return 0, err
	}
	for i, a := range r.attrs {
		j, ok := s.pos[a]
		if !ok {
			continue
		}
		d := rd[i]
		if sd[j] > d {
			d = sd[j]
		}
		if d > 1 {
			est /= float64(d)
		}
	}
	if est < 1 {
		return 1, nil
	}
	const maxEst = 1 << 62
	if est > maxEst {
		return maxEst, nil
	}
	return int64(est), nil
}

// pairItem is one candidate join in the planner heap. Slot ids are stable
// for the lifetime of a JoinAllCtx call; stale items (referencing a dead
// slot) are discarded when popped.
type pairItem struct {
	est  int64
	a, b int
}

type pairHeap []pairItem

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return h[i].est < h[j].est }
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(pairItem)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// JoinAll computes the natural join of all relations, joining the pair with
// the smallest estimated result first. It returns, with no inputs, the
// relation over no attributes containing the empty tuple (the join identity).
func JoinAll(rels []*Relation) *Relation {
	j, err := JoinAllCtx(context.Background(), rels)
	if err != nil {
		// Unreachable: the background context is never cancelled.
		panic(err)
	}
	return j
}

// JoinAllCtx is JoinAll under a context: the context is polled before every
// pairwise join and periodically inside each one and inside the planner's
// estimates (see Poller, which also yields the processor), and its error is
// returned as soon as cancellation is observed. The join order is identical to
// JoinAll, so cancelled and uncancelled runs do the same work up to the
// point of cancellation.
func JoinAllCtx(ctx context.Context, rels []*Relation) (*Relation, error) {
	if len(rels) == 0 {
		id := MustNew()
		id.n = 1
		return id, nil
	}
	if len(rels) == 1 {
		return rels[0], nil
	}
	obsPlannerJoins.Inc()
	ctx, sp := obs.StartSpan(ctx, "relation.joinall")
	sp.SetInt("relations", int64(len(rels)))
	out, err := joinAllPlanned(ctx, rels, sp)
	if sp != nil {
		if out != nil {
			sp.SetInt("out_rows", int64(out.n))
		}
		if err != nil {
			sp.SetInt("aborted", 1)
		}
		sp.End()
	}
	return out, err
}

// joinAllPlanned is the planning/execution loop behind JoinAllCtx. Every
// committed pairwise join is recorded against its cost estimate — both in
// the planner metrics (see recordPlannerPair) and, when tracing, as an
// attribute pair on the child join span produced by joinCtx — so estimate
// error is a first-class, queryable signal.
func joinAllPlanned(ctx context.Context, rels []*Relation, sp *obs.Span) (*Relation, error) {

	slots := make([]*Relation, len(rels), 2*len(rels))
	copy(slots, rels)
	alive := make([]bool, len(rels), 2*len(rels))
	for i := range alive {
		alive[i] = true
	}
	aliveCount := len(rels)

	// One Poller spans the planning work (the O(k²) initial estimates and
	// the distinct counts behind them, then each fresh slot's estimates);
	// every pairwise join polls on its own inside joinCtx.
	pl := NewPoller(ctx)
	var h pairHeap
	for i := 0; i < len(rels); i++ {
		for j := i + 1; j < len(rels); j++ {
			est, err := estimateJoin(pl, rels[i], rels[j])
			if err != nil {
				return nil, err
			}
			h = append(h, pairItem{est: est, a: i, b: j})
		}
	}
	heap.Init(&h)

	for aliveCount > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var it pairItem
		//lint:ignore ctxloop bounded in fact: each iteration pops the finite pair heap, and a live pair always exists while aliveCount > 1
		for {
			it = heap.Pop(&h).(pairItem)
			if alive[it.a] && alive[it.b] {
				break
			}
			// Stale: at least one side was consumed by an earlier join.
		}
		step := obs.StartChild(sp, "relation.plan")
		joined, err := slots[it.a].joinCtx(obs.WithSpan(ctx, step), slots[it.b])
		if err != nil {
			step.End()
			return nil, err
		}
		recordPlannerPair(it.est, int64(joined.n))
		if step != nil {
			step.SetInt("est_rows", it.est)
			step.SetInt("actual_rows", int64(joined.n))
			step.End()
		}
		alive[it.a], alive[it.b] = false, false
		aliveCount--
		if joined.Empty() {
			// Early exit: the full join is empty. Return an empty relation
			// over the union of all remaining attributes so callers can
			// still project onto any attribute of the join schema.
			attrs := joined.attrs
			seen := make(map[string]struct{}, len(attrs))
			for _, a := range attrs {
				seen[a] = struct{}{}
			}
			attrs = attrs[:len(attrs):len(attrs)]
			for id, r := range slots {
				if !alive[id] {
					continue
				}
				for _, a := range r.attrs {
					if _, ok := seen[a]; !ok {
						seen[a] = struct{}{}
						attrs = append(attrs, a)
					}
				}
			}
			return MustNew(attrs...), nil
		}
		id := len(slots)
		slots = append(slots, joined)
		alive = append(alive, true)
		for s := 0; s < id; s++ {
			if alive[s] {
				est, err := estimateJoin(pl, joined, slots[s])
				if err != nil {
					return nil, err
				}
				heap.Push(&h, pairItem{est: est, a: id, b: s})
			}
		}
	}
	for id, r := range slots {
		if alive[id] {
			return r, nil
		}
	}
	// Unreachable: aliveCount bookkeeping guarantees one live slot.
	panic("relation: join planner lost its result")
}
