package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/dispatch"
	"csdb/internal/obs"
	"csdb/internal/serve"
)

// The HTTP surface of the solver daemon:
//
//	GET  /metrics          registry snapshot in Prometheus text exposition
//	                       format; ?format=json keeps the expvar-style flat
//	                       JSON object (plus runtime gauges)
//	GET  /events           drain the wide-event ring as JSON lines;
//	                       ?trace_id=X keeps only one request's event
//	GET  /trace            drain the span ring buffer as JSON lines;
//	                       ?trace_id=X keeps only one request's spans
//	POST /solve            run a solver on the POSTed instance text
//	GET  /debug/pprof/*    the standard pprof handlers
//	GET  /debug/vars       the stock expvar handler
//	GET  /healthz          liveness probe
//
// Solve requests are parameterized by query string:
//
//	strategy  a row of the dispatcher's strategy table (internal/dispatch):
//	          auto|portfolio|mac|fc|bt|cbj|learn
//	          (default portfolio); learn is the restart/nogood engine
//	timeout   Go duration, capped by -max-timeout         (default 30s)
//	route     auto|portfolio — alias for strategy, the dispatcher surface:
//	          route=auto classifies the instance's structure and runs the
//	          matching polynomial solver (internal/dispatch); the response
//	          then carries the chosen route in "route". route and strategy
//	          are distinct cache keys, so an auto-routed result is never
//	          replayed to a portfolio caller or vice versa.
//
// Any other parameter is ignored.
//
// Every request gets a trace ID (req-N); the solve runs under a root span
// carrying it, so /trace output can be attributed per request even when
// solves overlap.
//
// Since CSP solving is worst-case intractable, /solve does not run the
// engine once per request. Requests flow through three serving layers
// (internal/serve):
//
//  1. a canonical result cache — instances are keyed order-insensitively
//     by a 128-bit digest under a key drawn per server from crypto/rand
//     (cspio.Digest, which identifies what cspio.Canonical identifies), and
//     a completed non-aborted result for the same (instance, strategy) is
//     replayed without touching the engine. The key is secret, so a client
//     cannot craft offline an instance that collides with another's;
//  2. singleflight collapsing — concurrent identical requests share one
//     engine solve (and one admission slot);
//  3. admission control — at most -max-inflight engine solves run at once,
//     the next -queue callers wait FIFO, and everyone beyond that is shed
//     with 429 + Retry-After.
//
// Responses carry "cached": true when the body was served from the cache or
// a shared flight rather than a dedicated engine run. Engine work is
// deliberately detached from per-connection cancellation: a disconnecting
// client does not abort a solve that collapsed followers may share (and
// whose result warms the cache). Solves are bounded by their timeout and by
// daemon shutdown (the drain deadline cancels s.baseCtx).

// Daemon-level metrics. cspd.solve.requests counts POSTs that reach the
// handler; cspd.solve.executed counts actual engine runs, so the difference
// is work saved by the cache and collapsing layers.
var (
	obsRequests  = obs.NewCounter("cspd.solve.requests")
	obsErrors    = obs.NewCounter("cspd.solve.errors")
	obsTooLarge  = obs.NewCounter("cspd.solve.too_large")
	obsExecuted  = obs.NewCounter("cspd.solve.executed")
	obsCollapsed = obs.NewCounter("cspd.solve.collapsed")
	obsSolveNs   = obs.NewHistogram("cspd.solve.ns")
	obsInFlight  = obs.NewGauge("cspd.solve.inflight")
	// obsRequestNs is the labeled RED latency surface: whole-request wall
	// time by (route, strategy, status). Labels pass through the literal
	// switches below, so the series space is the product of three closed sets.
	obsRequestNs = obs.NewHistogramVec("cspd.http.request_ns", "route", "strategy", "status")
	reqIDCounter atomic.Uint64
)

// statusLabel maps an HTTP status onto the closed status label set: the
// codes /solve can actually produce, with "other" as the safety net.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusRequestEntityTooLarge:
		return "413"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusServiceUnavailable:
		return "503"
	}
	return "other"
}

// routeLabel maps the dispatcher's routing outcome onto its closed label
// set: a structural class for auto-routed solves, "engine" when the generic
// engine ran without structural routing. Every case returns its own
// literal, so csplint's obslabel analyzer can prove the label set is closed.
func routeLabel(r string) string {
	switch r {
	case "tree":
		return "tree"
	case "schaefer":
		return "schaefer"
	case "acyclic":
		return "acyclic"
	case "width":
		return "width"
	case "hard":
		return "hard"
	case "":
		return "engine"
	}
	return "other"
}

// maxBodyBytes bounds POSTed instances; the text format is compact, so 16MB
// is generous.
const maxBodyBytes = 16 << 20

// bodies recycles the buffers /solve bodies are read into: cspio.ParseBytes
// does not retain its input, so a buffer is free once its body is parsed. A
// buffer grown past maxPooledBody goes back to the collector instead, so
// one large body pins no memory.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// solveParams are the validated query parameters of one /solve request.
type solveParams struct {
	strategy string
	timeout  time.Duration
}

// server carries daemon configuration and the serving layers shared by
// handlers.
type server struct {
	cfg   daemonConfig
	start time.Time

	admit   *serve.Admission
	cache   *serve.Cache
	flights serve.Group
	// digestKey keys the cache and flight keys. It is drawn from
	// crypto/rand for each server and never leaves it, so no one outside
	// the process can build an instance whose key is another's.
	digestKey *cspio.DigestKey

	// analyzer runs every solve through the strategy table; for
	// strategy=auto it classifies each instance afresh and routes it to a
	// polynomial solver. The result cache above is the daemon's only cache.
	analyzer *dispatch.Analyzer

	// baseCtx parents every engine solve; cancelSolves aborts them all (the
	// drain deadline's hard stop).
	baseCtx      context.Context
	cancelSolves context.CancelFunc

	// dispatch runs one engine solve. Tests substitute a controllable fake;
	// production uses realDispatch.
	dispatch func(ctx context.Context, inst *csp.Instance, p solveParams) solveResponse
}

func newServer(cfg daemonConfig) *server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		cfg:          cfg,
		start:        time.Now(),
		admit:        serve.NewAdmission(cfg.maxInflight, cfg.maxQueue),
		cache:        serve.NewCache(cfg.cacheSize),
		digestKey:    cspio.NewDigestKey(),
		analyzer:     dispatch.NewAnalyzer(0, 0),
		baseCtx:      ctx,
		cancelSolves: cancel,
	}
	s.dispatch = s.realDispatch
	return s
}

// mux builds the daemon's routing table. /solve is registered without a
// method pattern: the handler rejects non-POSTs itself with an explicit 405
// and Allow header before touching the body.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /events", s.handleEvents)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics serves the registry in Prometheus text exposition format by
// default; ?format=json preserves the original flat JSON object (plus
// runtime basics) for the JSON consumers that predate the text format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") != "json" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.DefaultRegistry().WritePrometheus(w)
		return
	}
	snap := obs.DefaultRegistry().Snapshot()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap["runtime.goroutines"] = runtime.NumGoroutine()
	snap["runtime.heap_alloc_bytes"] = ms.HeapAlloc
	snap["runtime.total_alloc_bytes"] = ms.TotalAlloc
	snap["runtime.num_gc"] = ms.NumGC
	snap["cspd.uptime_seconds"] = int64(time.Since(s.start).Seconds())
	snap["cspd.trace.dropped"] = obs.DefaultTracer().Dropped()
	snap["cspd.cache.len"] = s.cache.Len()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// handleEvents drains the wide-event ring as JSON lines. With ?trace_id=X
// only the matching events are written (the rest are discarded with the
// drain, matching /trace's drain-or-lose contract).
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	events := obs.DefaultEvents().Drain()
	if id := r.URL.Query().Get("trace_id"); id != "" {
		kept := events[:0]
		for _, ev := range events {
			if ev.TraceID == id {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = obs.WriteEventsJSONL(w, events)
}

// handleTrace drains the ring buffer as JSON lines. With ?trace_id=X only
// the matching spans are written (the rest are discarded with the drain, in
// keeping with the ring's drain-or-lose contract).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	spans := obs.DefaultTracer().Drain()
	if id := r.URL.Query().Get("trace_id"); id != "" {
		kept := spans[:0]
		for _, sp := range spans {
			if sp.TraceID == id {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = obs.WriteJSONL(w, spans)
}

// solveResponse is the JSON reply of POST /solve. Cached reports whether the
// body was replayed from the result cache or a collapsed flight instead of a
// dedicated engine run; for such responses WallNs (and Stats) describe the
// original engine solve, not this request.
type solveResponse struct {
	TraceID  string `json:"trace_id"`
	Strategy string `json:"strategy"`
	Cached   bool   `json:"cached"`
	Found    bool   `json:"found"`
	Aborted  bool   `json:"aborted"`
	Solution []int  `json:"solution,omitempty"`
	Winner   string `json:"winner,omitempty"`
	// Route is set for strategy=auto: the structural class the dispatcher
	// routed the instance to (tree, schaefer, acyclic, width, hard).
	Route  string    `json:"route,omitempty"`
	Stats  csp.Stats `json:"stats"`
	WallNs int64     `json:"wall_ns"`
}

// flightKey identifies collapsible requests: the cache key plus the
// effective timeout, so a short-deadline request never hands its (possibly
// aborted) outcome to a caller that asked for more time.
type flightKey struct {
	serve.CacheKey
	timeout time.Duration
}

// keys returns a request's cache key, the server's keyed digest of the
// instance (cspio.Digest) with the strategy, and its flight key.
func (s *server) keys(inst *csp.Instance, p solveParams) (serve.CacheKey, flightKey) {
	d := cspio.Digest(inst, s.digestKey)
	key := serve.CacheKey{Hash: d[0], Hash2: d[1], Strategy: p.strategy}
	return key, flightKey{key, p.timeout}
}

// flightResult is what one singleflight execution yields: either a response
// (possibly replayed from the cache) or an admission error. queueWaitNs is
// the leader's time in the admission queue; followers share the response
// but not the wait.
type flightResult struct {
	resp        solveResponse
	fromCache   bool
	queueWaitNs int64
	err         error
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	obsRequests.Inc()
	obsInFlight.Add(1)
	defer obsInFlight.Add(-1)

	// Every request gets a trace ID and a root span up front — before the
	// body is read — so error paths (unreadable body, parse failure, bad
	// parameters) are attributable in /trace and /events too. The deferred
	// funnel below emits exactly one wide event per request, whatever path
	// is taken; root.End() is registered after it so the span commits to the
	// ring before the event does.
	traceID := fmt.Sprintf("req-%d", reqIDCounter.Add(1))
	root := obs.StartRoot("cspd.solve", traceID)
	start := time.Now()
	ev := obs.SolveEvent{TraceID: traceID, Source: "cspd"}
	status := http.StatusOK
	defer func() {
		ev.TsNs = time.Now().UnixNano()
		obs.Emit(ev)
		obsRequestNs.Observe(time.Since(start).Nanoseconds(),
			routeLabel(ev.Route), dispatch.StrategyLabel(ev.Strategy), statusLabel(status))
	}()
	defer root.End()

	// fail terminates the request on an error path, recording the outcome
	// once for the event funnel and the status label.
	fail := func(code int, cause, msg string) {
		status = code
		ev.Verdict, ev.Cause = obs.VerdictError, cause
		root.SetStr("error", cause)
		http.Error(w, msg, code)
	}

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		fail(http.StatusMethodNotAllowed, "method",
			"method not allowed: POST an instance to /solve")
		return
	}
	body := bodies.Get().(*bytes.Buffer)
	body.Reset()
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			obsTooLarge.Inc()
			fail(http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("body too large: limit is %d bytes", tooBig.Limit))
			return
		}
		obsErrors.Inc()
		fail(http.StatusBadRequest, "read", "read: "+err.Error())
		return
	}
	inst, err := cspio.ParseBytes(body.Bytes())
	if body.Cap() <= maxPooledBody {
		bodies.Put(body)
	}
	if errors.Is(err, cspio.ErrTooLarge) {
		obsTooLarge.Inc()
		fail(http.StatusBadRequest, "instance_too_large", err.Error())
		return
	}
	if err != nil {
		obsErrors.Inc()
		fail(http.StatusBadRequest, "parse", "parse: "+err.Error())
		return
	}

	params, err := s.parseParams(r.URL.Query())
	if err != nil {
		// The event names the refused strategy, cut to maxEventStrategy
		// bytes so that a hostile query cannot grow the event ring; the
		// metric label maps any unknown name to "other".
		ev.Strategy = params.strategy[:min(len(params.strategy), maxEventStrategy)]
		obsErrors.Inc()
		fail(http.StatusBadRequest, "params", err.Error())
		return
	}
	root.SetStr("strategy", params.strategy)
	ev.Strategy = params.strategy

	key, flight := s.keys(inst, params)
	// The cache lookup lives inside the flight so a result committed by an
	// overlapping request is found even when this caller raced past its own
	// pre-flight check — an engine run after a completed identical solve is
	// impossible, not just unlikely.
	v, ranFlight := s.flights.Do(flight, func() any {
		if cached, ok := s.cache.Get(key); ok {
			return flightResult{resp: cached.(solveResponse), fromCache: true}
		}
		admitStart := time.Now()
		release, err := s.admit.Acquire(s.baseCtx)
		wait := time.Since(admitStart).Nanoseconds()
		if err != nil {
			return flightResult{queueWaitNs: wait, err: err}
		}
		defer release()
		ctx, cancel := context.WithTimeout(obs.WithSpan(s.baseCtx, root), params.timeout)
		defer cancel()
		obsExecuted.Inc()
		resp := s.dispatch(ctx, inst, params)
		obsSolveNs.Observe(resp.WallNs)
		if !resp.Aborted {
			s.cache.Add(key, resp)
		}
		return flightResult{resp: resp, queueWaitNs: wait}
	})
	res := v.(flightResult)
	switch {
	case errors.Is(res.err, serve.ErrShed):
		root.SetInt("shed", 1)
		status = http.StatusTooManyRequests
		ev.Verdict, ev.Cause = obs.VerdictShed, "admission_queue_full"
		ev.QueueWaitNs = res.queueWaitNs
		// An honest backoff hint: how long the line the caller was shed from
		// is actually moving, not a constant. Routers (cmd/cspr) rely on this
		// to back off proportionally when the whole replica set is saturated.
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(s.admit.EstimateWait(), s.cfg.drainTimeout)))
		http.Error(w, "solver at capacity: admission queue full, retry later",
			http.StatusTooManyRequests)
		return
	case res.err != nil:
		// The base context died while queued: the daemon is draining.
		obsErrors.Inc()
		fail(http.StatusServiceUnavailable, "draining", "shutting down: "+res.err.Error())
		return
	}

	resp := res.resp
	resp.TraceID = traceID
	resp.Cached = res.fromCache || !ranFlight
	if !ranFlight {
		obsCollapsed.Inc()
	}
	switch {
	case res.fromCache:
		ev.Cache = obs.CacheHit
	case !ranFlight:
		ev.Cache = obs.CacheFollower
	default:
		// This request's flight ran the engine: charge it the queue wait and
		// the engine wall clock. Replayed responses keep WallNs in the body
		// (it describes the original solve) but not in the event.
		ev.Cache = obs.CacheMiss
		ev.QueueWaitNs = res.queueWaitNs
		ev.WallNs = resp.WallNs
	}
	ev.Route = resp.Route
	ev.Winner = resp.Winner
	ev.Nodes = resp.Stats.Nodes
	ev.Backtracks = resp.Stats.Backtracks
	ev.Restarts = resp.Stats.Restarts
	ev.Nogoods = resp.Stats.NogoodsRecorded
	switch {
	case resp.Aborted:
		ev.Verdict = obs.VerdictUnknown
	case resp.Found:
		ev.Verdict = obs.VerdictSat
	default:
		ev.Verdict = obs.VerdictUnsat
	}
	if resp.Cached {
		root.SetInt("cached", 1)
	}
	if resp.Found {
		root.SetInt("found", 1)
	}
	if resp.Aborted {
		root.SetInt("aborted", 1)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
}

// retryAfterSeconds turns a predicted queue wait (serve.Admission's recent
// queue-wait EWMA times the current queue depth) into a Retry-After value:
// whole seconds rounded up, at least 1 (the header is integer seconds and 0
// invites an instant retry against a saturated gate), and at most the drain
// budget — a client told to wait longer than the daemon's own shutdown grace
// would outlive a restart. A non-positive drain budget caps at the 1s floor.
func retryAfterSeconds(estimate, drainBudget time.Duration) int {
	secs := int((estimate + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	maxSecs := int(drainBudget / time.Second)
	if maxSecs < 1 {
		maxSecs = 1
	}
	if secs > maxSecs {
		secs = maxSecs
	}
	return secs
}

// maxEventStrategy bounds the bytes of a refused strategy name that a wide
// event records.
const maxEventStrategy = 64

// parseParams validates the query string. The strategy is checked here, at
// the boundary, against the same table Run resolves it in, so neither the
// flight nor the engine can see a bad name. On an error the returned
// strategy is the name the query asked for.
func (s *server) parseParams(q url.Values) (solveParams, error) {
	p := solveParams{strategy: "portfolio", timeout: 30 * time.Second}
	if st := q.Get("strategy"); st != "" {
		p.strategy = st
	}
	if rt := q.Get("route"); rt != "" {
		// The dispatcher surface: route=auto turns structural routing on,
		// route=portfolio pins the generic engine. A conflicting strategy=
		// in the same query is rejected rather than silently overridden.
		if rt != "auto" && rt != "portfolio" {
			p.strategy = rt
			return p, fmt.Errorf("bad route %s (want auto or portfolio)", strconv.Quote(rt))
		}
		if st := q.Get("strategy"); st != "" && st != rt {
			return p, fmt.Errorf("conflicting strategy=%s and route=%s", st, rt)
		}
		p.strategy = rt
	}
	if t := q.Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil || d <= 0 {
			return p, fmt.Errorf("bad timeout %s", strconv.Quote(t))
		}
		p.timeout = d
	}
	if s.cfg.maxTimeout > 0 && p.timeout > s.cfg.maxTimeout {
		p.timeout = s.cfg.maxTimeout
	}
	return p, dispatch.Check(p.strategy)
}

// realDispatch runs one solve through the strategy table. ctx carries the
// request's root span and is bounded by the solve timeout and daemon
// shutdown.
func (s *server) realDispatch(ctx context.Context, inst *csp.Instance, p solveParams) solveResponse {
	start := time.Now()
	out, err := s.analyzer.Run(ctx, inst, p.strategy)
	// parseParams checked the strategy against the same table, so err is
	// unreachable; should it happen, UNKNOWN is never cached.
	return solveResponse{
		Strategy: p.strategy,
		Found:    out.Found,
		Aborted:  out.Aborted || err != nil,
		Solution: out.Solution,
		Winner:   out.Winner,
		Route:    out.RouteName(),
		Stats:    out.Stats,
		WallNs:   time.Since(start).Nanoseconds(),
	}
}
