package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csdb/internal/cspio"
	"csdb/internal/obs"
)

// Config parameterizes a Router. Zero values get sane defaults from New;
// only Replicas is mandatory.
type Config struct {
	// Replicas are the cspd base URLs (e.g. http://10.0.0.1:8344). The set is
	// fixed for the router's lifetime; membership changes are a restart.
	Replicas []string
	// VNodes is the virtual-node count per replica (default 64).
	VNodes int
	// PollInterval is the health-sweep cadence (default 1s).
	PollInterval time.Duration
	// ShedDepth is the backlog (queue depth + in-flight solves) at which the
	// primary is considered saturated and the request is offloaded to the
	// least-loaded live replica instead (default 16). Offloading trades cache
	// affinity for latency only under pressure.
	ShedDepth int64
	// BatchWorkers bounds intra-batch parallelism: how many items of one
	// /solve/batch request are in flight at once (default GOMAXPROCS, capped
	// at 8), drained from one jobs channel by a fixed pool of workers.
	BatchWorkers int
	// MaxBatchItems bounds one batch request (default 256).
	MaxBatchItems int
	// MaxBodyBytes bounds request bodies (default 16MB, matching cspd).
	MaxBodyBytes int64
	// Client performs proxy and probe requests (default a plain
	// &http.Client{}; per-request deadlines come from contexts).
	Client *http.Client
}

// Router is the stateless cluster front: it owns a Ring, a Health tracker,
// and the HTTP surface that proxies solves to replicas.
type Router struct {
	cfg    Config
	ring   *Ring
	health *Health
	client *http.Client
	start  time.Time
	reqID  atomic.Uint64
}

// New validates cfg, fills defaults, and builds the router. The health
// poller is not running until Start.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: at least one replica URL is required")
	}
	urls := make([]string, len(cfg.Replicas))
	for i, u := range cfg.Replicas {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("cluster: replica %d has an empty URL", i)
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return nil, fmt.Errorf("cluster: replica URL %q must start with http:// or https://", u)
		}
		urls[i] = u
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	if cfg.ShedDepth <= 0 {
		cfg.ShedDepth = 16
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = runtime.GOMAXPROCS(0)
		if cfg.BatchWorkers > 8 {
			cfg.BatchWorkers = 8
		}
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.Client == nil {
		// The stock transport keeps only 2 idle connections per host, which
		// makes a fan-in proxy reopen TCP connections under any real
		// concurrency; give each replica a connection pool matching the
		// parallelism the router can actually generate.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		cfg.Client = &http.Client{Transport: tr}
	}
	cfg.Replicas = urls
	return &Router{
		cfg:    cfg,
		ring:   NewRing(urls, cfg.VNodes),
		health: NewHealth(urls, cfg.Client),
		client: cfg.Client,
		start:  time.Now(),
	}, nil
}

// Start launches the background health poller; it stops when ctx is
// cancelled.
func (rt *Router) Start(ctx context.Context) {
	rt.health.Start(ctx, rt.cfg.PollInterval)
}

// CloseIdleConnections drops the proxy client's idle replica connections
// (and the per-connection background goroutines they pin). The drain path
// calls it so a stopped router leaves nothing behind.
func (rt *Router) CloseIdleConnections() {
	rt.client.CloseIdleConnections()
}

// Mux builds the router's HTTP surface.
//
//	POST /solve        proxy one instance to its consistent-hash home replica
//	POST /solve/batch  fan a batch of instances out with bounded parallelism
//	GET  /healthz      router liveness (plus the live-replica count)
//	GET  /metrics      router registry, Prometheus text (?format=json for JSON)
//	GET  /events       drain the router's wide-event ring (?trace_id= filters)
//	GET  /replicas     per-replica liveness and load, JSON
func (rt *Router) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", rt.handleSolve)
	mux.HandleFunc("/solve/batch", rt.handleBatch)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /events", rt.handleEvents)
	mux.HandleFunc("GET /replicas", rt.handleReplicas)
	return mux
}

// proxyResult is the outcome of routing one instance through the replica
// set: the reply to hand the caller plus the routing classification.
type proxyResult struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
	replica     int // ring index that served the request, or -1
	outcome     string
}

// attemptReply is one proxied attempt's reply, fully read so the connection
// is reusable and the body can be inspected for the node's trace_id.
type attemptReply struct {
	status      int
	contentType string
	retryAfter  string
	body        []byte
}

// proxyOnce sends the instance to one replica and reads the full reply.
func (rt *Router) proxyOnce(ctx context.Context, replica int, rawQuery string, body []byte) (attemptReply, error) {
	u := rt.ring.URL(replica) + "/solve"
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return attemptReply{}, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := rt.client.Do(req)
	if err != nil {
		return attemptReply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return attemptReply{}, err
	}
	return attemptReply{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        b,
	}, nil
}

// attemptPlan picks the attempt sequence for a key: the target replica plus
// at most one failover candidate (retry-once). The target is the key's first
// live replica in ring order — the cache-affine home — unless that home's
// backlog has crossed ShedDepth, in which case the request offloads to the
// least-loaded live replica (the home becomes the failover candidate).
func (rt *Router) attemptPlan(hash uint64) (plan []int, offloaded bool) {
	var live []int
	for _, i := range rt.ring.Order(hash) {
		if rt.health.Live(i) {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return nil, false
	}
	target := live[0]
	if rt.health.Load(target) >= rt.cfg.ShedDepth {
		if ll := rt.health.LeastLoaded(); ll >= 0 && ll != target {
			target, offloaded = ll, true
		}
	}
	plan = append(plan, target)
	for _, c := range live {
		if c != target {
			plan = append(plan, c)
			break
		}
	}
	return plan, offloaded
}

// nodeReply is the slice of a cspd solve response the router reads back:
// the node's trace_id (shared into the router's wide event) and the outcome
// fields that classify the verdict.
type nodeReply struct {
	TraceID string `json:"trace_id"`
	Cached  bool   `json:"cached"`
	Found   bool   `json:"found"`
	Aborted bool   `json:"aborted"`
}

// route proxies one instance: at most two attempts over the plan, replica
// health fed back synchronously, the final reply classified into a routing
// outcome. It records the routing metrics and emits exactly one wide event —
// carrying the serving node's trace_id when a node replied, the router's own
// cspr-N id when none did.
func (rt *Router) route(ctx context.Context, hash uint64, rawQuery, strategy string, body []byte) proxyResult {
	start := time.Now()
	plan, offloaded := rt.attemptPlan(hash)

	outcome := outcomeDown
	served := -1
	var reply attemptReply
	haveShed, haveBad := false, false
	var shedReply attemptReply
	for attempt, replica := range plan {
		r, err := rt.proxyOnce(ctx, replica, rawQuery, body)
		if err != nil {
			rt.health.NoteFailure(replica)
			continue
		}
		rt.health.NoteSuccess(replica)
		if r.status == http.StatusTooManyRequests {
			haveShed, shedReply = true, r
			continue
		}
		if r.status >= 500 {
			haveBad = true
			continue
		}
		served, reply = replica, r
		if attempt > 0 {
			outcome = outcomeFailover
		} else if offloaded {
			outcome = outcomeOffload
		} else {
			outcome = outcomePrimary
		}
		break
	}

	ev := obs.SolveEvent{Source: "cspr", Strategy: strategy}
	res := proxyResult{replica: served}
	switch {
	case served >= 0:
		res.status = reply.status
		res.contentType = reply.contentType
		res.retryAfter = reply.retryAfter
		res.body = reply.body
		var nr nodeReply
		if json.Unmarshal(reply.body, &nr) == nil && nr.TraceID != "" {
			ev.TraceID = nr.TraceID
		}
		switch {
		case reply.status != http.StatusOK:
			ev.Verdict, ev.Cause = obs.VerdictError, "upstream_"+strconv.Itoa(reply.status)
		case nr.Aborted:
			ev.Verdict = obs.VerdictUnknown
		case nr.Found:
			ev.Verdict = obs.VerdictSat
		default:
			ev.Verdict = obs.VerdictUnsat
		}
		if reply.status == http.StatusOK {
			if nr.Cached {
				ev.Cache = obs.CacheHit
			} else {
				ev.Cache = obs.CacheMiss
			}
		}
	case haveShed:
		// Every attempted replica shed: the set is saturated. Propagate the
		// node's own 429 verbatim — its Retry-After is derived from observed
		// queue wait, which is the honest backoff hint; inventing one here
		// would overwrite it with a guess.
		outcome = outcomeSaturated
		res.status = shedReply.status
		res.contentType = shedReply.contentType
		res.retryAfter = shedReply.retryAfter
		res.body = shedReply.body
		ev.Verdict, ev.Cause = obs.VerdictShed, "replicas_saturated"
	case haveBad, len(plan) > 0:
		outcome = outcomeError
		res.status = http.StatusBadGateway
		res.body = []byte("upstream error: no replica produced a response\n")
		ev.Verdict, ev.Cause = obs.VerdictError, "upstream_failed"
	default:
		outcome = outcomeDown
		res.status = http.StatusServiceUnavailable
		res.retryAfter = strconv.Itoa(int(rt.cfg.PollInterval/time.Second) + 1)
		res.body = []byte("no live replica\n")
		ev.Verdict, ev.Cause = obs.VerdictError, "no_live_replica"
	}
	res.outcome = outcome

	if ev.TraceID == "" {
		ev.TraceID = fmt.Sprintf("cspr-%d", rt.reqID.Add(1))
	}
	ev.Route = outcome
	ev.WallNs = time.Since(start).Nanoseconds()
	ev.TsNs = time.Now().UnixNano()
	obs.Emit(ev)
	obsRouteOutcome.Inc(outcome)
	if served >= 0 {
		obsReplicaReqNs.Observe(time.Since(start).Nanoseconds(), replicaLabel(served))
	}
	return res
}

// reject terminates a request locally (never reached a replica), emitting
// the same one-event-per-request funnel with a router-local trace id.
func (rt *Router) reject(w http.ResponseWriter, code int, cause, msg string) {
	obsRouteOutcome.Inc(outcomeReject)
	obs.Emit(obs.SolveEvent{
		TsNs:    time.Now().UnixNano(),
		TraceID: fmt.Sprintf("cspr-%d", rt.reqID.Add(1)),
		Source:  "cspr",
		Route:   outcomeReject,
		Verdict: obs.VerdictError,
		Cause:   cause,
	})
	w.Header().Set("X-CSPR-Outcome", outcomeReject)
	http.Error(w, msg, code)
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	obsRequests.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rt.reject(w, http.StatusMethodNotAllowed, "method",
			"method not allowed: POST an instance to /solve")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		rt.reject(w, http.StatusBadRequest, "read", "read: "+err.Error())
		return
	}
	inst, err := cspio.ParseBytes(body)
	if err != nil {
		// Parsing at the router is not redundant work: it rejects garbage
		// before it consumes a replica's admission slot, and it is how the
		// router obtains the canonical hash — the shard key.
		rt.reject(w, http.StatusBadRequest, "parse", "parse: "+err.Error())
		return
	}
	res := rt.route(r.Context(), cspio.CanonicalHash(inst), r.URL.RawQuery,
		r.URL.Query().Get("strategy"), body)
	rt.writeProxied(w, res)
}

// writeProxied relays a routing result to the caller, with the routing
// decision surfaced in X-CSPR-* headers for debuggability.
func (rt *Router) writeProxied(w http.ResponseWriter, res proxyResult) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	w.Header().Set("X-CSPR-Outcome", res.outcome)
	if res.replica >= 0 {
		w.Header().Set("X-CSPR-Replica", rt.ring.URL(res.replica))
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// batchItem is one instance of a POST /solve/batch request.
type batchItem struct {
	// Instance is the instance text (the same format POST /solve accepts).
	Instance string `json:"instance"`
	// Strategy, Timeout and Route mirror /solve's query parameters.
	Strategy string `json:"strategy,omitempty"`
	Timeout  string `json:"timeout,omitempty"`
	Route    string `json:"route,omitempty"`
}

// query renders the item's parameters as a /solve query string.
func (it batchItem) query() string {
	q := url.Values{}
	if it.Strategy != "" {
		q.Set("strategy", it.Strategy)
	}
	if it.Timeout != "" {
		q.Set("timeout", it.Timeout)
	}
	if it.Route != "" {
		q.Set("route", it.Route)
	}
	return q.Encode()
}

// batchItemResult is one item's outcome in the batch reply. Status is the
// per-item HTTP status the item would have gotten from /solve; Response is
// the node's JSON reply on success, Error the failure text otherwise.
type batchItemResult struct {
	Index    int             `json:"index"`
	Status   int             `json:"status"`
	Outcome  string          `json:"outcome"`
	Replica  string          `json:"replica,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// batchResponse is the POST /solve/batch reply. The batch itself is 200 as
// long as it was well-formed; per-item failures are in the items.
type batchResponse struct {
	Items []batchItemResult `json:"items"`
}

// handleBatch fans a batch of instances out across the replica set: each
// item routes independently (consistent-hash affinity per item), with at
// most BatchWorkers items in flight at once: a fixed pool of workers drains
// one jobs channel.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	obsBatches.Inc()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rt.reject(w, http.StatusMethodNotAllowed, "method",
			"method not allowed: POST a batch to /solve/batch")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		rt.reject(w, http.StatusBadRequest, "read", "read: "+err.Error())
		return
	}
	var req struct {
		Items []batchItem `json:"items"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		rt.reject(w, http.StatusBadRequest, "batch_parse", "batch parse: "+err.Error())
		return
	}
	if len(req.Items) == 0 {
		rt.reject(w, http.StatusBadRequest, "batch_empty", "batch has no items")
		return
	}
	if len(req.Items) > rt.cfg.MaxBatchItems {
		rt.reject(w, http.StatusBadRequest, "batch_too_large",
			fmt.Sprintf("batch has %d items, limit is %d", len(req.Items), rt.cfg.MaxBatchItems))
		return
	}
	obsBatchItems.Observe(int64(len(req.Items)))

	ctx := r.Context()
	results := make([]batchItemResult, len(req.Items))
	jobs := make(chan int)
	workers := rt.cfg.BatchWorkers
	if workers > len(req.Items) {
		workers = len(req.Items)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				results[idx] = rt.routeItem(ctx, idx, req.Items[idx])
			}
		}()
	}
	for i := range req.Items {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(batchResponse{Items: results})
}

// routeItem routes one batch item, mapping the proxy result into the
// per-item reply shape.
func (rt *Router) routeItem(ctx context.Context, idx int, it batchItem) batchItemResult {
	out := batchItemResult{Index: idx}
	body := []byte(it.Instance)
	inst, err := cspio.ParseBytes(body)
	if err != nil {
		obsRouteOutcome.Inc(outcomeReject)
		obs.Emit(obs.SolveEvent{
			TsNs:    time.Now().UnixNano(),
			TraceID: fmt.Sprintf("cspr-%d", rt.reqID.Add(1)),
			Source:  "cspr",
			Route:   outcomeReject,
			Verdict: obs.VerdictError,
			Cause:   "parse",
		})
		out.Status, out.Outcome = http.StatusBadRequest, outcomeReject
		out.Error = "parse: " + err.Error()
		return out
	}
	res := rt.route(ctx, cspio.CanonicalHash(inst), it.query(), it.Strategy, body)
	out.Status, out.Outcome = res.status, res.outcome
	if res.replica >= 0 {
		out.Replica = rt.ring.URL(res.replica)
	}
	if res.status == http.StatusOK && json.Valid(res.body) {
		out.Response = json.RawMessage(res.body)
	} else {
		out.Error = strings.TrimSpace(string(res.body))
	}
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintf(w, "ok live=%d/%d\n", rt.health.LiveCount(), rt.ring.Replicas())
}

// handleMetrics mirrors cspd's metrics surface: Prometheus text exposition
// by default, ?format=json for the flat JSON snapshot.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") != "json" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.DefaultRegistry().WritePrometheus(w)
		return
	}
	snap := obs.DefaultRegistry().Snapshot()
	snap["cspr.uptime_seconds"] = int64(time.Since(rt.start).Seconds())
	snap["cspr.replicas"] = rt.ring.Replicas()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(snap)
}

// handleEvents drains the router's wide-event ring as JSON lines, the same
// drain-or-lose contract as cspd's /events. Router events carry the node's
// trace_id, so ?trace_id= here selects the same request a replica's /trace
// endpoint expands into a span tree.
func (rt *Router) handleEvents(w http.ResponseWriter, r *http.Request) {
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

// replicaStatus is one row of GET /replicas.
type replicaStatus struct {
	URL  string `json:"url"`
	Live bool   `json:"live"`
	Load int64  `json:"load"`
}

func (rt *Router) handleReplicas(w http.ResponseWriter, _ *http.Request) {
	rows := make([]replicaStatus, rt.ring.Replicas())
	for i := range rows {
		rows[i] = replicaStatus{
			URL:  rt.ring.URL(i),
			Live: rt.health.Live(i),
			Load: rt.health.Load(i),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(rows)
}
