package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/dispatch"
	"csdb/internal/obs"
	"csdb/internal/serve"
)

// layerMetric is one per-layer figure of a traced run. Each names the
// end-to-end metric it should move in NOTES.md.
type layerMetric struct {
	name, unit, better string
}

var layerMetrics = []layerMetric{
	{"cspd.cpu_ms_per_req", "ms", "lower"},
	{"cspd.alloc_kb_per_req", "KB", "lower"},
	{"cspd.gc_per_kreq", "count", "lower"},
	{"cspd.http_residual_ms", "ms", "lower"},
	{"cspd.encode_us", "us", "lower"},
	{"cspio.parse_ms", "ms", "lower"},
	{"cspio.parse_mb_s", "MB/s", "higher"},
	{"cspio.hash_ms", "ms", "lower"},
	{"cspio.body_kb", "KB", "lower"},
	{"serve.cache.hit_ratio", "ratio", "higher"},
	{"serve.cache.get_us", "us", "lower"},
	{"serve.admit.wait_ms.p50", "ms", "lower"},
	{"serve.admit.wait_ms.p90", "ms", "lower"},
	{"serve.admit.waited_ratio", "ratio", "lower"},
	{"serve.shed_ratio", "ratio", "lower"},
	{"serve.flight.collapsed_ratio", "ratio", "higher"},
	{"dispatch.classify_ms", "ms", "lower"},
	{"dispatch.class_share.tree", "ratio", "higher"},
	{"dispatch.class_share.schaefer", "ratio", "higher"},
	{"dispatch.class_share.acyclic", "ratio", "higher"},
	{"dispatch.class_share.width", "ratio", "higher"},
	{"dispatch.class_share.hard", "ratio", "lower"},
	{"dispatch.classcache.hit_ratio", "ratio", "higher"},
	{"dispatch.fallback_ratio", "ratio", "lower"},
	{"route.solve_ms.tree", "ms", "lower"},
	{"route.solve_ms.schaefer", "ms", "lower"},
	{"route.solve_ms.acyclic", "ms", "lower"},
	{"route.solve_ms.width", "ms", "lower"},
	{"csp.solve_ms", "ms", "lower"},
	{"csp.nodes_per_req", "count", "lower"},
	{"csp.backtracks_per_req", "count", "lower"},
	{"csp.restarts_per_req", "count", "lower"},
	{"csp.nogoods_per_req", "count", "lower"},
	{"csp.nodes_per_ms", "1/ms", "higher"},
	{"csp.portfolio.useful_ratio", "ratio", "higher"},
	{"csp.portfolio.win_share.mac", "ratio", "higher"},
	{"csp.portfolio.win_share.fc", "ratio", "higher"},
	{"csp.portfolio.win_share.cbj", "ratio", "higher"},
	{"csp.portfolio.win_share.learn", "ratio", "higher"},
	{"csp.portfolio.win_share.join", "ratio", "higher"},
	{"trace_overhead_ratio", "ratio", "lower"},
}

// laneKey maps a portfolio lane name onto its metric suffix.
var laneKey = map[string]string{
	"MAC+MRV": "mac", "FC+Lex": "fc", "CBJ": "cbj", "Learn": "learn", "Join": "join",
}

// traced is a traced run. It sends the same requests twice: to a plain
// daemon (the untraced p50 for trace_overhead_ratio) and to one streaming
// wide events, with /metrics scraped around the timed loop. It then joins
// each event to its request by trace_id and replays the requests
// in-process through the layer calls, recording one span per call.
func traced(cfg config, sp spec) (*result, error) {
	// Each of the two loops sends half a run's requests, so a traced run
	// takes about as long as an untraced one plus the replay.
	w, err := buildWorkload(sp.name, cfg.seed, max(sp.rate*cfg.seconds/2, 1))
	if err != nil {
		return nil, err
	}
	res, lat, err := tracedHTTP(cfg, sp, w)
	if err != nil {
		return nil, err
	}
	// Only the replayed requests stay live (copied out of the workload):
	// the replay runs the layers with a heap as small as the daemon's, so
	// the collector costs the same in both.
	warm := w.warm
	reqs := append([]*request(nil), w.streams[0][:min(len(lat), maxReplay)]...)
	runtime.GC()
	rp, err := replay(warm, reqs, time.Duration(cfg.seconds)*time.Second/2,
		filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", sp.name, cfg.seed)))
	if err != nil {
		return nil, err
	}
	m := rp.figures(lat[:rp.replayed])
	for _, lm := range layerMetrics {
		if v, ok := m[lm.name]; ok {
			res.Metrics[lm.name] = metric{v, lm.unit}
		}
		if _, ok := res.Metrics[lm.name]; !ok {
			return nil, fmt.Errorf("traced run computed no %s", lm.name)
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d traced: client p50 %.4f ms = replayed layers %.4f ms + residual %.4f ms (%d requests replayed)\n",
		sp.name, cfg.seed, m["cspd.http_residual_ms"]+median(rp.layerSums), median(rp.layerSums), m["cspd.http_residual_ms"], rp.replayed)
	return res, nil
}

// tracedHTTP runs the plain and the traced loop and returns the result
// with every metric the loops give, plus the traced loop's latencies of
// stream 0 in send order for the residual.
func tracedHTTP(cfg config, sp spec, w *workload) (*result, []float64, error) {
	d, err := startWarm(cfg, w)
	if err != nil {
		return nil, nil, err
	}
	plain, err := timedPhase(d, w, cfg)
	d.stop()
	if err != nil {
		return nil, nil, err
	}
	eventsFile := filepath.Join(cfg.out, fmt.Sprintf("events-%s-%d.jsonl", sp.name, cfg.seed))
	_ = os.Remove(eventsFile)
	if d, err = startWarm(cfg, w, "-events", eventsFile); err != nil {
		return nil, nil, err
	}
	ph, err := timedPhase(d, w, cfg)
	d.stop() // a graceful drain flushes the events file
	if err != nil {
		return nil, nil, err
	}
	events, err := readEvents(eventsFile)
	if err != nil {
		return nil, nil, err
	}
	res := &result{
		Correct:   ph.failed == 0 && plain.failed == 0,
		Attempted: ph.attempted() + plain.attempted(),
		Failed:    ph.failed + plain.failed,
		Metrics:   map[string]metric{},
	}
	units := map[string]string{}
	for _, lm := range layerMetrics {
		units[lm.name] = lm.unit
	}
	for name, v := range httpFigures(ph, events) {
		res.Metrics[name] = metric{v, units[name]}
	}
	res.Metrics["trace_overhead_ratio"] = metric{
		ratio(percentile(ph.latenciesMS(0), 0.5), percentile(plain.latenciesMS(0), 0.5)), "ratio"}
	lat := make([]float64, len(ph.streams[0]))
	for i, c := range ph.streams[0] {
		lat[i] = float64(c.latency) / float64(time.Millisecond)
	}
	return res, lat, nil
}

// readEvents loads cspd's wide-event stream keyed by trace_id.
func readEvents(path string) (map[string]obs.SolveEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open events: %w", err)
	}
	defer f.Close()
	out := map[string]obs.SolveEvent{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var ev obs.SolveEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("decode event: %w", err)
		}
		out[ev.TraceID] = ev
	}
	return out, sc.Err()
}

// spanRec is one replay span. Spans of a request share its trace ID; the
// root has no parent.
type spanRec struct {
	TraceID string `json:"trace_id"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Class   string `json:"class,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s spanRec) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps the replay's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []spanRec
}

func (r *recorder) add(trace string, parent int, name, class string, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, spanRec{trace, id, parent, name, class,
		start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()})
	return id
}

// replayResponse mirrors cspd's /solve reply, so encoding costs the same.
type replayResponse struct {
	TraceID  string    `json:"trace_id"`
	Strategy string    `json:"strategy"`
	Cached   bool      `json:"cached"`
	Found    bool      `json:"found"`
	Aborted  bool      `json:"aborted"`
	Solution []int     `json:"solution,omitempty"`
	Winner   string    `json:"winner,omitempty"`
	Route    string    `json:"route,omitempty"`
	Stats    csp.Stats `json:"stats"`
	WallNs   int64     `json:"wall_ns"`
}

// replayResult is what the replay measured: self times per layer span
// (route solves keyed "route.<class>"), per-request layer sums, and the
// portfolio's useful work.
type replayResult struct {
	self        map[string][]float64 // ms
	layerSums   []float64            // ms, one per replayed request
	parseBytes  float64
	parseSec    float64
	winnerNodes int64
	totalNodes  int64
	replayed    int
}

// maxReplay caps the requests one traced run replays.
const maxReplay = 1000

// replay runs requests through the layer calls in handleSolve's order:
// cspio.Parse, cspio.CanonicalHash, serve.Cache.Get, then on a miss
// dispatch.Analyzer.Solve (for Hard-family requests Classify and
// csp.Portfolio separately, which is what Solve does for them, to see the
// lanes) and serve.Cache.Add, then json.Marshal. The warm-up requests go
// first, unrecorded, so the replay cache holds what the daemon's did.
// Replay stops after budget once 20 requests are done.
func replay(warm, reqs []*request, budget time.Duration, spansFile string) (*replayResult, error) {
	// Run the layers as cspd runs them: instrumentation on, default GC.
	obs.SetEnabled(true)
	obs.SetTracing(true)
	defer obs.SetEnabled(false)
	defer obs.SetTracing(false)
	defer debug.SetGCPercent(debug.SetGCPercent(100))

	cache := serve.NewCache(cacheEntries)
	analyzer := dispatch.NewAnalyzer(0, cacheEntries)
	rec := &recorder{epoch: time.Now()}
	rr := &replayResult{self: map[string][]float64{}}
	one := func(i int, r *request, record bool) error {
		trace := fmt.Sprintf("replay-%d", i)
		mark := len(rec.spans)
		t0 := time.Now()
		root := rec.add(trace, 0, "request", r.class, t0, t0) // ended below
		inst, err := cspio.Parse(bytes.NewReader(r.body))
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("replay parse: %w", err)
		}
		key := serve.CacheKey{Hash: cspio.CanonicalHash(inst), Strategy: "auto"}
		t2 := time.Now()
		v, hit := cache.Get(key)
		t3 := time.Now()
		rec.add(trace, root, "cspio.Parse", "", t0, t1)
		rec.add(trace, root, "cspio.CanonicalHash", "", t1, t2)
		rec.add(trace, root, "serve.Cache.Get", "", t2, t3)
		var resp replayResponse
		if hit {
			resp = v.(replayResponse)
			resp.Cached = true
		} else {
			resp = replayResponse{Strategy: "auto"}
			s0 := time.Now()
			if r.class == classHard {
				cls, _ := analyzer.Classify(inst)
				s1 := time.Now()
				pres := csp.Portfolio(context.Background(), inst, csp.PortfolioOptions{})
				s2 := time.Now()
				rec.add(trace, root, "dispatch.Analyzer.Classify", cls.Class.String(), s0, s1)
				rec.add(trace, root, "csp.Portfolio", classHard, s1, s2)
				resp.Found, resp.Aborted, resp.Solution = pres.Found, pres.Aborted, pres.Solution
				resp.Winner, resp.Stats, resp.Route = pres.Winner, pres.Result.Stats, classHard
				if record && !pres.Aborted {
					rr.winnerNodes += pres.Stats.Nodes
					rr.totalNodes += pres.Total.Nodes
				}
			} else {
				out := analyzer.Solve(context.Background(), inst)
				s1 := time.Now()
				id := rec.add(trace, root, "dispatch.Analyzer.Solve", out.Route.String(), s0, s1)
				rec.add(trace, id, "dispatch.classify", "", s0, s0.Add(out.ClassifyTime))
				resp.Found, resp.Aborted, resp.Solution = out.Found, out.Aborted, out.Solution
				resp.Winner, resp.Stats, resp.Route = out.Winner, out.Stats, out.Route.String()
			}
			resp.WallNs = time.Since(s0).Nanoseconds()
			a0 := time.Now()
			cache.Add(key, resp)
			rec.add(trace, root, "serve.Cache.Add", "", a0, time.Now())
		}
		resp.TraceID = trace
		e0 := time.Now()
		if _, err := json.Marshal(&resp); err != nil {
			return fmt.Errorf("replay encode: %w", err)
		}
		end := time.Now()
		rec.add(trace, root, "json.Marshal", "", e0, end)
		rec.spans[root-1].EndNs = end.Sub(rec.epoch).Nanoseconds()
		if !record {
			rec.spans = rec.spans[:mark]
			return nil
		}
		rr.parseBytes += float64(len(r.body))
		rr.parseSec += t1.Sub(t0).Seconds()
		return nil
	}
	for i, r := range warm {
		if err := one(-1-i, r, false); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for i, r := range reqs {
		if i >= 20 && time.Since(start) > budget {
			break
		}
		if err := one(i, r, true); err != nil {
			return nil, err
		}
		rr.replayed++
	}
	rr.collect(rec.spans)
	return rr, writeSpans(spansFile, rec.spans)
}

// collect turns the spans into per-layer self times: a span's duration
// minus the part of it its children cover.
func (rr *replayResult) collect(spans []spanRec) {
	childTime := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, s := range spans {
		self := s.dur() - childTime[s.ID]
		switch s.Name {
		case "request":
			rr.layerSums = append(rr.layerSums, ms(childTime[s.ID]))
		case "dispatch.Analyzer.Solve":
			rr.self["route."+s.Class] = append(rr.self["route."+s.Class], ms(self))
		default:
			rr.self[s.Name] = append(rr.self[s.Name], ms(self))
		}
	}
}

func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// figures computes the replayed layers' metrics; lat holds the client
// latencies of the same requests, for the residual.
func (rp *replayResult) figures(lat []float64) map[string]float64 {
	m := map[string]float64{}
	med := func(name string) float64 { return median(rp.self[name]) }
	m["cspio.parse_ms"] = med("cspio.Parse")
	m["cspio.hash_ms"] = med("cspio.CanonicalHash")
	m["serve.cache.get_us"] = 1000 * med("serve.Cache.Get")
	m["cspd.encode_us"] = 1000 * med("json.Marshal")
	m["cspio.parse_mb_s"] = ratio(rp.parseBytes/1e6, rp.parseSec)
	classify := append(append([]float64(nil), rp.self["dispatch.classify"]...), rp.self["dispatch.Analyzer.Classify"]...)
	m["dispatch.classify_ms"] = median(classify)
	for _, c := range ptimeClasses {
		m["route.solve_ms."+c] = med("route." + c)
	}
	m["csp.solve_ms"] = med("csp.Portfolio")
	m["csp.portfolio.useful_ratio"] = ratio(float64(rp.winnerNodes), float64(rp.totalNodes))
	// The client's p50 over the replayed requests less the replayed layers
	// is what HTTP, scheduling and the handler's own bookkeeping cost.
	m["cspd.http_residual_ms"] = median(lat) - median(rp.layerSums)
	return m
}

// httpFigures computes the traced loop's metrics: process CPU, the
// scrape deltas, and the wide events joined to the timed requests by
// trace_id.
func httpFigures(ph *phase, events map[string]obs.SolveEvent) map[string]float64 {
	m := map[string]float64{}
	reqs := float64(ph.attempted())
	b, a := ph.before, ph.after
	m["cspd.cpu_ms_per_req"] = ratio(float64(ph.cpu)/float64(time.Millisecond), reqs)
	m["cspd.alloc_kb_per_req"] = ratio(delta(b, a, "runtime.total_alloc_bytes")/1024, reqs)
	m["cspd.gc_per_kreq"] = ratio(1000*delta(b, a, "runtime.num_gc"), reqs)

	var bodyBytes, joined, hits, sheds, followers float64
	var waits []float64
	classes := map[string]float64{}
	var hard, nodes, backtracks, restarts, nogoods, hardWallMS float64
	wins := map[string]float64{}
	for _, ss := range ph.streams {
		for _, c := range ss {
			bodyBytes += float64(len(c.req.body))
			ev, ok := events[c.rep.TraceID]
			if !ok {
				continue
			}
			joined++
			switch ev.Cache {
			case obs.CacheHit:
				hits++
			case obs.CacheFollower:
				followers++
			case obs.CacheMiss:
				waits = append(waits, float64(ev.QueueWaitNs)/1e6)
			}
			if ev.Verdict == obs.VerdictShed {
				sheds++
			}
			classes[ev.Route]++
			if ev.Route == classHard && ev.Cache == obs.CacheMiss {
				hard++
				nodes += float64(ev.Nodes)
				backtracks += float64(ev.Backtracks)
				restarts += float64(ev.Restarts)
				nogoods += float64(ev.Nogoods)
				hardWallMS += float64(ev.WallNs) / 1e6
				wins[laneKey[ev.Winner]]++
			}
		}
	}
	m["cspio.body_kb"] = ratio(bodyBytes/1024, reqs)
	m["serve.cache.hit_ratio"] = ratio(hits, joined)
	m["serve.shed_ratio"] = ratio(sheds, joined)
	m["serve.flight.collapsed_ratio"] = ratio(followers, joined)
	m["serve.admit.wait_ms.p50"], m["serve.admit.wait_ms.p90"] = 0, 0
	if len(waits) > 0 {
		s := sortedCopy(waits)
		m["serve.admit.wait_ms.p50"] = percentile(s, 0.5)
		m["serve.admit.wait_ms.p90"] = percentile(s, 0.9)
	}
	queued := delta(b, a, `cspd.admit.wait_ns{outcome="queued"}`)
	m["serve.admit.waited_ratio"] = ratio(queued, queued+delta(b, a, `cspd.admit.wait_ns{outcome="fast"}`))
	var classified float64
	for _, c := range allClasses {
		m["dispatch.class_share."+c] = ratio(classes[c], joined)
		classified += delta(b, a, "dispatch.class."+c)
	}
	m["dispatch.classcache.hit_ratio"] = ratio(delta(b, a, "dispatch.cache.hits"), classified)
	m["dispatch.fallback_ratio"] = ratio(delta(b, a, "dispatch.fallback"), classified)
	m["csp.nodes_per_req"] = ratio(nodes, hard)
	m["csp.backtracks_per_req"] = ratio(backtracks, hard)
	m["csp.restarts_per_req"] = ratio(restarts, hard)
	m["csp.nogoods_per_req"] = ratio(nogoods, hard)
	m["csp.nodes_per_ms"] = ratio(nodes, hardWallMS)
	for _, lane := range []string{"mac", "fc", "cbj", "learn", "join"} {
		m["csp.portfolio.win_share."+lane] = ratio(wins[lane], hard)
	}
	return m
}
