package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"csdb/internal/csp"
)

// sample is one timed request as the client saw it. Replies are checked
// only after the timed loop, so checking takes no CPU from the server.
type sample struct {
	req     *request
	status  int
	reply   []byte
	latency time.Duration
	err     error
}

// runLoad drives the workload's streams as closed loops, one connection
// each: a stream sends its next request only when the previous reply has
// been read. Stream 0 fixes the run length; later streams stop once it is
// done. Every stream also stops at the deadline, a guard against a machine
// far slower than the reference one.
func runLoad(d *daemon, w *workload, deadline time.Duration) ([][]sample, time.Duration) {
	out := make([][]sample, len(w.streams))
	var primaryDone atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	stopAt := start.Add(deadline)
	for i, stream := range w.streams {
		out[i] = make([]sample, 0, len(stream))
		wg.Add(1)
		go func(i int, stream []*request) {
			defer wg.Done()
			if i == 0 {
				defer primaryDone.Store(true)
			}
			for _, r := range stream {
				if (i > 0 && primaryDone.Load()) || time.Now().After(stopAt) {
					return
				}
				status, reply, lat, err := d.post(r.body)
				out[i] = append(out[i], sample{req: r, status: status, reply: reply, latency: lat, err: err})
			}
		}(i, stream)
	}
	wg.Wait()
	return out, time.Since(start)
}

// reply is the part of cspd's /solve answer the benchmark checks.
type reply struct {
	TraceID  string `json:"trace_id"`
	Cached   bool   `json:"cached"`
	Found    bool   `json:"found"`
	Aborted  bool   `json:"aborted"`
	Solution []int  `json:"solution"`
	Route    string `json:"route"`
}

// checked is one sample after its reply was verified.
type checked struct {
	sample
	rep   reply
	ok    bool
	cause string
}

// check verifies one sample against its instance: status 200, a definite
// verdict, a SAT witness that satisfies the instance, and an UNSAT verdict
// the oracle agrees with. The oracle is the seed search engine
// (csp.SolveSeed), the differential oracle the repository keeps for
// exactly this purpose; satisfiable is asked only for UNSAT answers.
func check(s sample, inst *csp.Instance, satisfiable func() bool) checked {
	c := checked{sample: s}
	switch {
	case s.err != nil:
		c.cause = "transport: " + s.err.Error()
	case s.status != http.StatusOK:
		c.cause = fmt.Sprintf("status %d", s.status)
	default:
		if err := json.Unmarshal(s.reply, &c.rep); err != nil {
			c.cause = "unparseable reply: " + err.Error()
			break
		}
		switch {
		case c.rep.Aborted:
			c.cause = "aborted (unknown verdict)"
		case c.rep.Found && (len(c.rep.Solution) != inst.Vars || !inst.Satisfies(c.rep.Solution)):
			c.cause = "SAT witness does not satisfy the instance"
		case !c.rep.Found && satisfiable():
			c.cause = "UNSAT verdict on a satisfiable instance"
		default:
			c.ok = true
		}
	}
	return c
}

// checkAll verifies every sample of every stream and returns them with the
// number that failed. Samples are grouped by request, so each instance is
// regenerated, and the oracle consulted, at most once.
func checkAll(streams [][]sample) ([][]checked, int) {
	type at struct{ stream, i int }
	byReq := map[*request][]at{}
	out := make([][]checked, len(streams))
	for i, ss := range streams {
		out[i] = make([]checked, len(ss))
		for j, s := range ss {
			byReq[s.req] = append(byReq[s.req], at{i, j})
		}
	}
	failed := 0
	for r, where := range byReq {
		inst := r.instance()
		known, sat := false, false
		satisfiable := func() bool {
			if !known {
				sat = csp.SolveSeed(inst, csp.Options{Algorithm: csp.MAC, VarOrder: csp.MRV}).Found
				known = true
			}
			return sat
		}
		for _, a := range where {
			c := check(streams[a.stream][a.i], inst, satisfiable)
			out[a.stream][a.i] = c
			if !c.ok {
				failed++
			}
		}
	}
	return out, failed
}

// shapeGuard fails the run when the workload no longer exercises what it
// was designed to: every answer must take its family's route (so class
// shares are as designed and no PTIME request falls back to the
// portfolio), hit-warm must be all cache hits and the cold workloads all
// misses, the background stream of mixed-queue must outlast the measured
// one, and mixed-queue must actually wait in admission.
func shapeGuard(w *workload, streams [][]checked, before, after snapshot) error {
	for i, ss := range streams {
		for _, c := range ss {
			if !c.ok {
				continue
			}
			if c.rep.Route != c.req.class {
				return fmt.Errorf("%s: a %s-family request was routed %q", w.name, c.req.class, c.rep.Route)
			}
			if c.rep.Cached != w.wantHits {
				return fmt.Errorf("%s: stream %d got cached=%v, want %v on every timed request", w.name, i, c.rep.Cached, w.wantHits)
			}
		}
	}
	if len(w.streams) > 1 {
		if len(streams[1]) == len(w.streams[1]) {
			return fmt.Errorf("%s: the background stream ran out of requests before the measured stream finished", w.name)
		}
		if delta(before, after, `cspd.admit.wait_ns{outcome="queued"}`) == 0 {
			return fmt.Errorf("%s: no request waited for admission", w.name)
		}
	}
	return nil
}
