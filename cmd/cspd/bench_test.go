package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"csdb/internal/csp"
	"csdb/internal/cspio"
	"csdb/internal/gen"
	"csdb/internal/obs"
)

// Serving-stack benchmarks: the request latency of a cold engine solve vs a
// canonical-cache hit on the same instance, and the cost of the cache key. The workload is the pigeonhole
// instance PHP(8) — 9 pairwise-distinct variables over 8 values — which is
// unsatisfiable and forces MAC through an exponential refutation, the
// worst-case-intractable shape the cache exists to absorb. `make
// bench-serve` captures both medians into BENCH_serve.json.

// benchPH is the pigeonhole size; PHP(8) refutes in hundreds of
// milliseconds, so the cold/hit gap dwarfs HTTP and scheduling noise.
const benchPH = 8

// pigeonholeText renders PHP(n) in the instance text format.
func pigeonholeText(n int) string {
	inst := csp.NewInstance(n+1, n)
	ne := gen.NotEqualTable(n)
	for i := 0; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			inst.MustAddConstraint([]int{i, j}, ne)
		}
	}
	var buf bytes.Buffer
	if err := cspio.Format(&buf, inst); err != nil {
		panic(err)
	}
	return buf.String()
}

// benchDaemon starts the daemon surface as deployed: metrics and tracing
// on, admission bounds at their defaults, cache size as given.
func benchDaemon(b *testing.B, cacheSize int) *httptest.Server {
	b.Helper()
	prevEnabled, prevTracing := obs.Enabled(), obs.Tracing()
	obs.SetEnabled(true)
	obs.SetTracing(true)
	cfg := daemonConfig{
		maxTimeout:   time.Minute,
		drainTimeout: time.Second,
		maxInflight:  4,
		maxQueue:     64,
		cacheSize:    cacheSize,
	}
	ts := httptest.NewServer(newServer(cfg).mux())
	b.Cleanup(func() {
		ts.Close()
		obs.DefaultTracer().Drain()
		obs.SetEnabled(prevEnabled)
		obs.SetTracing(prevTracing)
	})
	return ts
}

func postSolveBench(b *testing.B, ts *httptest.Server, body string) {
	b.Helper()
	resp, err := http.Post(ts.URL+"/solve?strategy=mac", "text/plain", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("/solve: status %d", resp.StatusCode)
	}
}

// BenchmarkServeSolveCold measures the full request latency when every
// request must run the engine (cache disabled).
func BenchmarkServeSolveCold(b *testing.B) {
	ts := benchDaemon(b, 0)
	body := pigeonholeText(benchPH)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postSolveBench(b, ts, body)
	}
}

// BenchmarkServeSolveCacheHit measures the same request replayed from the
// canonical result cache.
func BenchmarkServeSolveCacheHit(b *testing.B) {
	ts := benchDaemon(b, 16)
	body := pigeonholeText(benchPH)
	postSolveBench(b, ts, body) // warm the cache with the one engine run
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postSolveBench(b, ts, body)
	}
}

// hardBodies is how many distinct phase-transition bodies
// BenchmarkServeHardSearch cycles through.
const hardBodies = 64

// BenchmarkServeHardSearch measures the Hard route as cspd serves it: the
// in-process /solve handler, with metrics and tracing on, answering
// route=auto over hardBodies pre-rendered members of the hard-search family
// (PhaseTransition(20, 10, 0.3)), most of which the dispatcher classifies
// Hard and races on the portfolio. The cache is off, so every request runs
// the engine; a cached answer fails the benchmark.
func BenchmarkServeHardSearch(b *testing.B) {
	prevEnabled, prevTracing := obs.Enabled(), obs.Tracing()
	obs.SetEnabled(true)
	obs.SetTracing(true)
	b.Cleanup(func() {
		obs.DefaultTracer().Drain()
		obs.DefaultEvents().Drain()
		obs.SetEnabled(prevEnabled)
		obs.SetTracing(prevTracing)
	})
	h := newServer(daemonConfig{maxTimeout: time.Minute, maxInflight: 4, maxQueue: 64}).mux()
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, hardBodies)
	for i := range bodies {
		var buf bytes.Buffer
		if err := cspio.Format(&buf, gen.PhaseTransition(rng, 20, 10, 0.3)); err != nil {
			b.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/solve?route=auto&timeout=10s", bytes.NewReader(bodies[i%hardBodies]))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":false`)) {
			b.Fatalf("/solve: status %d body %s, want an engine run", rec.Code, rec.Body.Bytes())
		}
	}
}

// BenchmarkServeCanonicalHash times parse plus the canonical encoding and
// FNV hash of the benchmark instance: the stable, unkeyed hash the cspr ring
// routes by, which cspd itself no longer computes.
func BenchmarkServeCanonicalHash(b *testing.B) {
	body := pigeonholeText(benchPH)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := cspio.Parse(strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if cspio.CanonicalHash(inst) == 0 {
			fmt.Fprintln(io.Discard) // keep the result live
		}
	}
}

// BenchmarkServeCacheKey isolates the cache-key cost: parse plus the
// server's keyed digest of the benchmark instance, as /solve computes them.
func BenchmarkServeCacheKey(b *testing.B) {
	body := pigeonholeText(benchPH)
	s := newServer(daemonConfig{})
	params := solveParams{strategy: "mac", timeout: time.Minute}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := cspio.Parse(strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if key, _ := s.keys(inst, params); key.Hash == 0 {
			fmt.Fprintln(io.Discard) // keep the result live
		}
	}
}
