// Command cspd is the solver daemon: it serves the dispatcher's strategy
// table (structural routing, the portfolio race and the search engines)
// over HTTP with first-class observability — a /metrics endpoint exposing
// the shared atomic registry, a /trace endpoint draining the structured
// span ring, the standard pprof handlers, and a /solve endpoint that runs a
// POSTed instance under a per-request trace ID.
//
// Because CSP solving is worst-case intractable, the daemon is built to
// survive heavy repeated traffic rather than to merely multiplex the
// engine: solves pass through admission control (a bounded solve semaphore
// with a bounded FIFO wait queue; overflow is shed with 429), a canonical
// result cache (order-insensitive instance hashing, LRU over completed
// responses), and singleflight collapsing (concurrent identical requests
// share one engine run). SIGINT/SIGTERM trigger a graceful drain: the
// listener closes, in-flight solves get -drain-timeout to finish before
// their contexts are cancelled, the trace ring is flushed, and the process
// exits 0.
//
// Usage:
//
//	cspd [-addr :8344] [-max-timeout 2m] [-max-inflight N] [-queue N]
//	     [-cache N] [-drain-timeout 10s] [-read-timeout 1m]
//	     [-write-timeout 5m] [-idle-timeout 2m]
//	     [-trace-flush file.jsonl] [-events events.jsonl]
//
// Examples:
//
//	cspd -addr :8344 &
//	curl -s localhost:8344/metrics | jq .
//	curl -s -X POST --data-binary @instance.csp \
//	    'localhost:8344/solve?strategy=portfolio&timeout=5s' | jq .
//	curl -s 'localhost:8344/trace?trace_id=req-1' > trace.jsonl
//	go tool pprof 'localhost:8344/debug/pprof/heap'
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"csdb/internal/obs"
)

// daemonConfig is everything the daemon is parameterized by; flags populate
// it in main and the lifecycle tests construct it directly.
type daemonConfig struct {
	addr         string
	maxTimeout   time.Duration
	drainTimeout time.Duration
	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration
	maxInflight  int
	maxQueue     int
	cacheSize    int
	traceFlush   string
	eventsFile   string
}

func main() {
	var cfg daemonConfig
	flag.StringVar(&cfg.addr, "addr", ":8344", "listen address")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", 2*time.Minute, "cap on per-request solve timeouts (0 = uncapped)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 10*time.Second, "grace period for in-flight solves on shutdown before their contexts are cancelled")
	flag.DurationVar(&cfg.readTimeout, "read-timeout", time.Minute, "cap on reading one whole request incl. body; reaps slow-client connections (0 = no limit)")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 5*time.Minute, "cap on handling+writing one response; must exceed -max-timeout (0 = no limit)")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute, "cap on idle keep-alive connections between requests (0 = no limit)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", runtime.GOMAXPROCS(0), "max concurrent engine solves (0 = unlimited, disables the queue)")
	flag.IntVar(&cfg.maxQueue, "queue", 64, "solve requests allowed to wait for a slot before overflow is shed with 429")
	flag.IntVar(&cfg.cacheSize, "cache", 256, "result-cache entries; the daemon's only cache (0 = caching off)")
	flag.StringVar(&cfg.traceFlush, "trace-flush", "", "file to flush the span ring to on shutdown (empty = discard)")
	flag.StringVar(&cfg.eventsFile, "events", "", "file to stream wide events to as JSON lines (empty = ring only, drained by /events)")
	flag.Parse()
	if cfg.writeTimeout > 0 && cfg.maxTimeout > 0 && cfg.writeTimeout <= cfg.maxTimeout {
		log.Fatalf("cspd: -write-timeout %v must exceed -max-timeout %v, or long solves lose their response mid-write", cfg.writeTimeout, cfg.maxTimeout)
	}

	// The daemon is the observability consumer: metrics, tracing and wide
	// events are on for its whole lifetime (library default is off).
	obs.SetEnabled(true)
	obs.SetTracing(true)
	obs.SetEvents(true)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		log.Fatal(fmt.Errorf("cspd: %w", err))
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	log.Printf("cspd: serving /solve /metrics /trace /debug/pprof on %s "+
		"(max-inflight %d, queue %d, cache %d)",
		ln.Addr(), cfg.maxInflight, cfg.maxQueue, cfg.cacheSize)
	// A clean drain (including http.ErrServerClosed from the closed
	// listener) exits 0; only real listen/serve errors are fatal.
	if err := runDaemon(newServer(cfg), ln, sigCh, log.Printf); err != nil {
		log.Fatal(fmt.Errorf("cspd: %w", err))
	}
}
