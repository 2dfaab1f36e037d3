package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"csdb/internal/obs"
)

// TestRouterAffinity is the cache-affinity acceptance test: with three
// replicas, posting the same instances twice must land each instance on the
// same replica both times (consistent hashing), so the second round is
// served from that node's result cache and the cluster-wide engine-run count
// equals the number of distinct instances.
func TestRouterAffinity(t *testing.T) {
	rt, backends := testCluster(t, 3, nil)
	ts := routerServer(t, rt)

	const distinct = 5
	firstReplica := make(map[int]string)
	for round := 0; round < 2; round++ {
		for i := 0; i < distinct; i++ {
			resp, body := postRouter(t, ts, "strategy=mac", clusterInstance(i))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d instance %d: status %d (%s)", round, i, resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-CSPR-Outcome"); got != outcomePrimary {
				t.Fatalf("round %d instance %d: outcome %q, want primary", round, i, got)
			}
			replica := resp.Header.Get("X-CSPR-Replica")
			if round == 0 {
				firstReplica[i] = replica
			} else if replica != firstReplica[i] {
				t.Fatalf("instance %d moved from %s to %s: affinity broken", i, firstReplica[i], replica)
			}
			var nr nodeReply
			if err := json.Unmarshal(body, &nr); err != nil {
				t.Fatal(err)
			}
			if want := round == 1; nr.Cached != want {
				t.Fatalf("round %d instance %d: cached=%v, want %v", round, i, nr.Cached, want)
			}
		}
	}
	var runs int64
	for _, b := range backends {
		runs += b.engineRuns.Load()
	}
	if runs != distinct {
		t.Fatalf("cluster-wide engine runs = %d, want %d (one per distinct instance)", runs, distinct)
	}
}

// TestRouterFailover is the killed-replica acceptance test: stop one of
// three replicas, then push a batch covering many shards — every item must
// still succeed, rerouted to the dead replica's ring successors.
func TestRouterFailover(t *testing.T) {
	rt, backends := testCluster(t, 3, nil)
	ts := routerServer(t, rt)
	backends[1].ts.Close()

	const items = 12
	var req struct {
		Items []batchItem `json:"items"`
	}
	for i := 0; i < items; i++ {
		req.Items = append(req.Items, batchItem{Instance: clusterInstance(i), Strategy: "mac"})
	}
	payload, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/solve/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != items {
		t.Fatalf("batch returned %d items, want %d", len(out.Items), items)
	}
	dead := backends[1].ts.URL
	for _, it := range out.Items {
		if it.Status != http.StatusOK {
			t.Fatalf("item %d: status %d (%s) — killed-replica batch must fully succeed", it.Index, it.Status, it.Error)
		}
		if it.Replica == dead {
			t.Fatalf("item %d reportedly served by the dead replica", it.Index)
		}
		if it.Response == nil {
			t.Fatalf("item %d: no response body", it.Index)
		}
	}
	// The first failed proxy attempt marked the dead replica down.
	if rt.health.Live(1) {
		t.Fatal("dead replica still marked live after proxy failures")
	}
}

// TestRouterSaturated429Propagation: when every attempted replica sheds, the
// router must propagate the 429 — including the replica's own derived
// Retry-After, not an invented one.
func TestRouterSaturated(t *testing.T) {
	rt, backends := testCluster(t, 3, nil)
	ts := routerServer(t, rt)
	for _, b := range backends {
		b.shedding.Store(true)
	}
	resp, _ := postRouter(t, ts, "", clusterInstance(0))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 when the whole set sheds", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want the replica's own %q propagated", got, "3")
	}
	if got := resp.Header.Get("X-CSPR-Outcome"); got != outcomeSaturated {
		t.Fatalf("outcome %q, want saturated", got)
	}
	_ = rt
}

// TestRouterOffload: a primary whose reported backlog crosses ShedDepth
// stops receiving new keys; they go to the least-loaded live replica.
func TestRouterOffload(t *testing.T) {
	rt, backends := testCluster(t, 3, func(c *Config) {
		c.ShedDepth = 4
		c.PollInterval = time.Hour // poll manually for determinism
	})
	ts := routerServer(t, rt)

	// Find the primary of instance 0, overload it, and re-poll.
	resp, _ := postRouter(t, ts, "", clusterInstance(0))
	primary := resp.Header.Get("X-CSPR-Replica")
	for i, b := range backends {
		if b.ts.URL == primary {
			b.queueDepth.Store(10)
			_ = i
		}
	}
	rt.health.PollOnce(context.Background())

	resp, _ = postRouter(t, ts, "", clusterInstance(0))
	if got := resp.Header.Get("X-CSPR-Outcome"); got != outcomeOffload {
		t.Fatalf("outcome %q, want offload away from the saturated primary", got)
	}
	if got := resp.Header.Get("X-CSPR-Replica"); got == primary {
		t.Fatalf("request still routed to the overloaded primary %s", got)
	}
}

// TestRouterFailoverOn5xx: a 500 from the primary is retried once on the
// next ring candidate and succeeds there.
func TestRouterFailoverOn5xx(t *testing.T) {
	rt, backends := testCluster(t, 2, nil)
	ts := routerServer(t, rt)

	resp, _ := postRouter(t, ts, "", clusterInstance(3))
	primary := resp.Header.Get("X-CSPR-Replica")
	for _, b := range backends {
		if b.ts.URL == primary {
			b.failing.Store(true)
		}
	}
	resp, body := postRouter(t, ts, "", clusterInstance(7))
	if resp.StatusCode == http.StatusOK {
		// instance 7's primary may be the healthy one; force the failing path
		// with the instance we know lives on the failing primary.
		resp, body = postRouter(t, ts, "", clusterInstance(3))
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want failover success", resp.StatusCode, body)
	}
	// At least one request must have failed over off the broken primary.
	resp, _ = postRouter(t, ts, "", clusterInstance(3))
	if got := resp.Header.Get("X-CSPR-Replica"); got == primary {
		t.Fatalf("request served by the failing replica %s", got)
	}
}

// TestRouterDown: with every replica unreachable the router answers 503.
func TestRouterAllDown(t *testing.T) {
	rt, backends := testCluster(t, 2, func(c *Config) { c.PollInterval = time.Hour })
	ts := routerServer(t, rt)
	// Start's immediate sweep runs in the background: let it see both
	// replicas live first, or it races the closes below and marks them down
	// before any request does.
	for rt.health.Sweeps() == 0 {
		time.Sleep(time.Millisecond)
	}
	for _, b := range backends {
		b.ts.Close()
	}
	// Two requests: the first pair of attempts marks both replicas down
	// (502), after which routing short-circuits to 503.
	resp, _ := postRouter(t, ts, "", clusterInstance(0))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("first status %d, want 502 while failures are being discovered", resp.StatusCode)
	}
	resp, _ = postRouter(t, ts, "", clusterInstance(0))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second status %d, want 503 once all replicas are known dead", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry a Retry-After hint")
	}
	if got := resp.Header.Get("X-CSPR-Outcome"); got != outcomeDown {
		t.Fatalf("outcome %q, want down", got)
	}
}

// TestRouterRejects: local rejections never touch a replica.
func TestRouterRejects(t *testing.T) {
	rt, backends := testCluster(t, 2, nil)
	ts := routerServer(t, rt)

	resp, _ := postRouter(t, ts, "", "this is not an instance")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse garbage: status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("X-CSPR-Outcome"); got != outcomeReject {
		t.Fatalf("outcome %q, want reject", got)
	}

	getResp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve: status %d, want 405", getResp.StatusCode)
	}
	for _, b := range backends {
		if b.served.Load() != 0 {
			t.Fatal("a locally-rejected request reached a replica")
		}
	}
	_ = rt
}

// TestRouterEventSharesNodeTrace: the router's wide event for a proxied
// request carries the serving node's trace_id, so one id follows the request
// across both tiers.
func TestRouterEventSharesNodeTrace(t *testing.T) {
	withClusterObs(t)
	rt, _ := testCluster(t, 2, nil)
	ts := routerServer(t, rt)

	resp, body := postRouter(t, ts, "", clusterInstance(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var nr nodeReply
	if err := json.Unmarshal(body, &nr); err != nil {
		t.Fatal(err)
	}
	if nr.TraceID == "" {
		t.Fatal("backend reply has no trace_id")
	}
	found := false
	for _, ev := range obs.DefaultEvents().Drain() {
		if ev.Source == "cspr" && ev.TraceID == nr.TraceID {
			found = true
			if ev.Verdict != obs.VerdictSat {
				t.Fatalf("event verdict %q, want sat", ev.Verdict)
			}
			if ev.Route != outcomePrimary {
				t.Fatalf("event route %q, want primary", ev.Route)
			}
		}
	}
	if !found {
		t.Fatalf("no cspr wide event sharing the node's trace id %s", nr.TraceID)
	}
}

// TestHealthPollerMarksDown: the background sweep discovers a dead replica
// without any proxy traffic, and /replicas reports it.
func TestHealthPollerMarksDown(t *testing.T) {
	rt, backends := testCluster(t, 3, nil)
	ts := routerServer(t, rt)
	backends[2].ts.Close()

	waitFor(t, "poller to mark replica 2 down", func() bool {
		return !rt.health.Live(2)
	})
	resp, err := http.Get(ts.URL + "/replicas")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []replicaStatus
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("/replicas returned %d rows, want 3", len(rows))
	}
	if rows[2].Live {
		t.Fatal("/replicas reports the dead replica live")
	}
	if !rows[0].Live || !rows[1].Live {
		t.Fatal("/replicas reports a healthy replica down")
	}
}

// TestHealthPollerTracksLoad: the sweep reads the replica's reported queue
// depth and in-flight count.
func TestHealthPollerTracksLoad(t *testing.T) {
	rt, backends := testCluster(t, 1, func(c *Config) { c.PollInterval = time.Hour })
	backends[0].queueDepth.Store(5)
	backends[0].inflight.Store(2)
	rt.health.PollOnce(context.Background())
	if got := rt.health.Load(0); got != 7 {
		t.Fatalf("Load(0) = %d, want 7 (queue 5 + inflight 2)", got)
	}
}

// TestBatchValidation covers the local batch rejections.
func TestBatchValidation(t *testing.T) {
	rt, _ := testCluster(t, 1, func(c *Config) { c.MaxBatchItems = 2 })
	ts := routerServer(t, rt)

	for _, tc := range []struct {
		name, payload string
	}{
		{"garbage", "not json"},
		{"empty", `{"items":[]}`},
		{"too_large", `{"items":[{"instance":"a"},{"instance":"b"},{"instance":"c"}]}`},
	} {
		resp, err := http.Post(ts.URL+"/solve/batch", "application/json", strings.NewReader(tc.payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestBatchPerItemErrors: a batch mixing good and unparsable items reports
// per-item statuses instead of failing wholesale.
func TestBatchPerItemErrors(t *testing.T) {
	rt, _ := testCluster(t, 2, nil)
	ts := routerServer(t, rt)

	payload := fmt.Sprintf(`{"items":[{"instance":%q},{"instance":"garbage"}]}`, clusterInstance(0))
	resp, err := http.Post(ts.URL+"/solve/batch", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Items[0].Status != http.StatusOK {
		t.Fatalf("good item: status %d (%s)", out.Items[0].Status, out.Items[0].Error)
	}
	if out.Items[1].Status != http.StatusBadRequest || out.Items[1].Outcome != outcomeReject {
		t.Fatalf("bad item: status %d outcome %s, want 400/reject", out.Items[1].Status, out.Items[1].Outcome)
	}
}

// TestBatchAffinity: batch items obey the same consistent-hash placement as
// single solves — the second identical batch is served fully from caches.
func TestBatchAffinity(t *testing.T) {
	rt, backends := testCluster(t, 3, nil)
	ts := routerServer(t, rt)

	var req struct {
		Items []batchItem `json:"items"`
	}
	const distinct = 6
	for i := 0; i < distinct; i++ {
		req.Items = append(req.Items, batchItem{Instance: clusterInstance(i)})
	}
	payload, _ := json.Marshal(req)
	for round := 0; round < 2; round++ {
		resp, err := http.Post(ts.URL+"/solve/batch", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		var out batchResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range out.Items {
			if it.Status != http.StatusOK {
				t.Fatalf("round %d item %d: status %d", round, it.Index, it.Status)
			}
		}
	}
	var runs int64
	for _, b := range backends {
		runs += b.engineRuns.Load()
	}
	if runs != distinct {
		t.Fatalf("engine runs = %d, want %d: batch routing broke cache affinity", runs, distinct)
	}
}

// TestNewValidation pins Config validation.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no replicas must fail")
	}
	if _, err := New(Config{Replicas: []string{"not-a-url"}}); err == nil {
		t.Fatal("New with a schemeless replica URL must fail")
	}
	rt, err := New(Config{Replicas: []string{"http://a:1/", " http://b:2 "}})
	if err != nil {
		t.Fatal(err)
	}
	if rt.ring.URL(0) != "http://a:1" || rt.ring.URL(1) != "http://b:2" {
		t.Fatalf("URLs not normalized: %q %q", rt.ring.URL(0), rt.ring.URL(1))
	}
	if rt.cfg.VNodes != 64 || rt.cfg.ShedDepth != 16 || rt.cfg.BatchWorkers < 1 {
		t.Fatalf("defaults not applied: %+v", rt.cfg)
	}
}

// TestRouterEventsEndpoint: GET /events drains the router's ring as JSON
// lines and ?trace_id= filters to the one request, using the node's trace id
// (the same id the serving replica's /trace endpoint expands).
func TestRouterEventsEndpoint(t *testing.T) {
	withClusterObs(t)
	rt, _ := testCluster(t, 2, nil)
	ts := routerServer(t, rt)

	resp, body := postRouter(t, ts, "", clusterInstance(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var nr nodeReply
	if err := json.Unmarshal(body, &nr); err != nil || nr.TraceID == "" {
		t.Fatalf("bad node reply %s (err %v)", body, err)
	}

	evResp, err := http.Get(ts.URL + "/events?trace_id=" + nr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	raw, err := io.ReadAll(evResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1 || lines[0] == "" {
		t.Fatalf("want exactly 1 event line for trace %s, got %q", nr.TraceID, raw)
	}
	var ev obs.SolveEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Source != "cspr" || ev.TraceID != nr.TraceID {
		t.Fatalf("event %+v, want source cspr with trace %s", ev, nr.TraceID)
	}

	// The drain-or-lose contract: a second GET returns nothing.
	evResp2, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp2.Body.Close()
	raw2, _ := io.ReadAll(evResp2.Body)
	if len(bytes.TrimSpace(raw2)) != 0 {
		t.Fatalf("second drain not empty: %q", raw2)
	}
}
