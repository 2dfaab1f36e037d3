# Build/verify entry points. `make check` is the default gate: vet (with the
# gofmt gate), tier-1 verify (ROADMAP.md), the repo's own static analyzers
# (`make lint`, see README "Static analysis"), the race-gated kernel packages
# and the observability layer + daemon. `make bench` captures the
# relational-kernel benchmark suite into BENCH_relation.json; `make
# obs-overhead` measures the disabled cost of the observability
# instrumentation; `make fuzz-smoke` gives each native fuzz target a short
# shake.

GO ?= go
BENCH_LABEL ?= after
FUZZTIME ?= 10s

.PHONY: check build test verify vet lint cspdbench-check fuzz-smoke race race-engine race-kernel race-obs race-serve race-dispatch race-search race-cluster bench bench-serve bench-dispatch bench-search bench-cluster obs-overhead expofmt csptop-smoke

# Default target: everything a PR must pass locally. expofmt is the
# exposition-format gate (Prometheus text writer + /metrics content tests).
check: vet verify lint cspdbench-check expofmt race-kernel race-obs race-serve race-dispatch race-search race-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet plus the formatting gate: gofmt -l prints offending files, and any
# output fails the target.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Run the repo-specific invariant analyzers (cmd/csplint) over the module:
# ctxloop, obsboundary, obslabel, arenaretain, atomicmix. Exit 1 on any
# finding.
lint:
	$(GO) build ./...
	$(GO) run ./cmd/csplint ./...

# The benchmark program is its own module (cspdbench/go.mod), so the root
# ./... skips it, yet it compiles against the dispatch, serve and csp APIs:
# vet and test it on every check.
cspdbench-check:
	$(GO) -C cspdbench vet ./...
	$(GO) -C cspdbench test ./...

# Briefly run every native fuzz target (instance parser round trip, parser
# vs its reference oracle, differential join oracle, tractability
# dispatcher, GYO against its map-based oracle). FUZZTIME=2m fuzz-smoke for a longer shake.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseInstance -fuzztime $(FUZZTIME) ./internal/cspio/
	$(GO) test -run '^$$' -fuzz FuzzParseAgrees -fuzztime $(FUZZTIME) ./internal/cspio/
	$(GO) test -run '^$$' -fuzz FuzzJoinDifferential -fuzztime $(FUZZTIME) ./internal/relation/
	$(GO) test -run '^$$' -fuzz FuzzDispatch -fuzztime $(FUZZTIME) ./internal/dispatch/
	$(GO) test -run '^$$' -fuzz FuzzGYO -fuzztime $(FUZZTIME) ./internal/dispatch/
	$(GO) test -run '^$$' -fuzz FuzzSearchDifferential -fuzztime $(FUZZTIME) ./internal/csp/

# Tier-1 verification (ROADMAP.md): the module builds and all tests pass.
verify: build test

# Race-check the whole module. The concurrent solver paths (portfolio,
# parallel search, cancellation) live in internal/csp, but the full module
# runs under the detector so future concurrency is covered automatically.
race:
	$(GO) test -race -count=1 ./...

# The fast subset: just the packages with goroutines on the hot path.
race-engine:
	$(GO) test -race -count=1 ./internal/csp/ ./internal/consistency/ ./internal/relation/

# The relational kernel, its tuple store (relation.Table, which is also
# csp.Table and structure.Interp) and the packages built on that store, with
# the parallel hash join enabled — the acceptance gate for the kernel.
race-kernel:
	$(GO) test -race -count=1 ./internal/relation/ ./internal/hypergraph/ ./internal/structure/ ./internal/cspio/

# The observability layer and every binary that records or consumes it: the
# registry, tracer and event ring are written to by every solver goroutine,
# the daemon serves them, csolve streams events, and csptop drains both
# endpoints — all run under the detector.
race-obs:
	$(GO) test -race -count=1 ./internal/obs/ ./cmd/cspd/ ./cmd/csolve/ ./cmd/csptop/

# The serving layers (admission gate, result cache, singleflight) and the
# daemon they are wired into: collapsing and shedding are inherently
# concurrent, so both packages always run under the detector.
race-serve:
	$(GO) test -race -count=1 ./internal/serve/ ./cmd/cspd/

# The tractability dispatcher and its differential gate: the gate's
# hard-class trials race the portfolio, so the whole suite runs under the
# detector.
race-dispatch:
	$(GO) test -race -count=1 ./internal/dispatch/

# The search core (bitset domains, watched supports, nogood learning) and
# the hard-instance generators behind its differential gate: the portfolio
# races learning against MAC, so the whole suite runs under the detector.
# The portfolio, cancellation and lane tests run again on one and two
# processors, fewer than the race's three lanes, so a lane that stops
# yielding, in its search or its set-up, fails.
race-search:
	$(GO) test -race -count=1 ./internal/csp/ ./internal/gen/
	$(GO) test -race -count=1 -cpu 1,2 -run 'Portfolio|Cancel|Lane' ./internal/csp/

# The cluster router and its binary: the health poller writes liveness/load
# that every request reads, batch fan-out runs a worker pool, and the
# lifecycle test drains under SIGTERM — all under the detector.
race-cluster:
	$(GO) test -race -count=1 ./internal/cluster/ ./cmd/cspr/

# Benchmark the join/semijoin/Yannakakis/engine hot paths and merge the
# medians into BENCH_relation.json under $(BENCH_LABEL). Run with
# BENCH_LABEL=before on a pre-change tree to record a baseline.
bench:
	$(GO) test -bench 'Join|Semijoin|Yannakakis|Engine' -benchmem -count 5 \
		-benchtime=0.3s -run '^$$' -timeout 60m \
		. ./internal/relation/ ./internal/hypergraph/ \
		| $(GO) run ./cmd/benchjson -o BENCH_relation.json -label $(BENCH_LABEL) -obs

# Benchmark the daemon's serving stack — cold engine solve vs canonical
# cache hit on the same request — into BENCH_serve.json. The recorded gap is
# the acceptance bar for the result cache (hit median >= 50x faster).
bench-serve:
	$(GO) test -bench 'ServeSolve|ServeCanonicalHash' -benchmem -count 5 \
		-benchtime=0.3s -run '^$$' -timeout 30m ./cmd/cspd/ \
		| $(GO) run ./cmd/benchjson -o BENCH_serve.json -label $(BENCH_LABEL) \
		-note "cspd request latency: cold engine solve vs canonical result-cache hit on PHP(8), plus the cache-key (parse+hash) cost"

# Benchmark the dispatcher's classification into BENCH_serve.json: one
# classify per op over cspdbench-sized tree, Schaefer, acyclic, width and
# hard (phase-transition) families — the cost of consulting structure
# before every auto-routed solve.
bench-dispatch:
	$(GO) test -bench 'Classify' -benchmem -count 5 -benchtime=0.3s \
		-run '^$$' -timeout 30m ./internal/dispatch/ \
		| $(GO) run ./cmd/benchjson -o BENCH_serve.json -label $(BENCH_LABEL)

# Benchmark the cluster router into BENCH_serve.json: aggregate throughput
# as replicas are added (sleep-bound backends expose per-node capacity), and
# consistent-hash affinity vs round-robin spraying on bounded backend caches
# (the miss/op gap is what the ring buys).
bench-cluster:
	$(GO) test -bench 'ClusterQPS|ClusterAffinity|ClusterRandom' -benchmem \
		-count 5 -benchtime=0.3s -run '^$$' -timeout 30m ./internal/cluster/ \
		| $(GO) run ./cmd/benchjson -o BENCH_serve.json -label $(BENCH_LABEL) \
		-note "cspr cluster router: aggregate QPS vs replica count, and consistent-hash affinity vs round-robin on bounded caches (miss/op)"

# Time the search-core engines (seed vs bitset MAC vs restart/nogood
# learning) in-process on the fixed hard-instance suite — pigeonhole,
# quasigroup completion, phase-transition Model B — into BENCH_search.json.
# The recorded speedups are the acceptance bar for the search-core rewrite
# (learning >= 5x over the seed engine on a hard family).
bench-search:
	$(GO) run ./cmd/benchjson -search -label $(BENCH_LABEL)

# The exposition-format gate, fast enough for every `make check`: the
# Prometheus text writer pinned against a stdlib-parser round trip, and the
# daemon's /metrics serving both formats (text default, ?format=json legacy).
expofmt:
	$(GO) test -count=1 -run 'Prom|Prometheus' ./internal/obs/ ./cmd/cspd/

# Smoke-test the dashboard end to end: build cspd and csptop, start the
# daemon on a loopback port, render one -once frame against it, shut down.
csptop-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/cspd ./cmd/cspd; \
	$(GO) build -o $$tmp/csptop ./cmd/csptop; \
	$$tmp/cspd -addr 127.0.0.1:8399 >$$tmp/cspd.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do \
		if $$tmp/csptop -url http://127.0.0.1:8399 -once >/dev/null 2>&1; then break; fi; \
		sleep 0.1; \
	done; \
	$$tmp/csptop -url http://127.0.0.1:8399 -once

# Measure what the observability instrumentation costs when it is off (the
# library default; the acceptance bar is <2% vs the pre-instrumentation
# baseline) and what turning the registry on costs on the same workloads.
obs-overhead:
	$(GO) test -bench 'ObsOverhead' -benchmem -count 5 -benchtime=0.3s \
		-run '^$$' -timeout 30m .
