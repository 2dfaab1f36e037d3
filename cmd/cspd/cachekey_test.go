package main

import (
	"testing"
	"time"

	"csdb/internal/cspio"
)

// TestCacheKeyIsServerKeyed pins how /solve keys its cache and flights: by
// the server's keyed digest of the instance, never by the unkeyed
// CanonicalHash. Two servers key one instance differently; on one server a
// reordered copy of an instance hits its entry, with one engine run, and a
// copy that differs in one row misses; the flight key is the cache key plus
// the timeout.
func TestCacheKeyIsServerKeyed(t *testing.T) {
	inst, err := cspio.ParseBytes([]byte(sampleInstance))
	if err != nil {
		t.Fatal(err)
	}
	params := solveParams{strategy: "mac", timeout: 7 * time.Second}
	key1, flight1 := newServer(testConfig()).keys(inst, params)
	key2, _ := newServer(testConfig()).keys(inst, params)
	if key1.Hash == key2.Hash || key1.Hash2 == key2.Hash2 {
		t.Fatalf("two servers keyed one instance alike: %+v, %+v", key1, key2)
	}
	if key1.Hash == cspio.CanonicalHash(inst) {
		t.Fatalf("cache key %+v is the unkeyed CanonicalHash", key1)
	}
	if key1.Strategy != params.strategy || flight1 != (flightKey{key1, params.timeout}) {
		t.Fatalf("flight key %+v, want cache key %+v with timeout %v", flight1, key1, params.timeout)
	}

	ts, _ := startDaemon(t)
	executedBefore := obsExecuted.Load()
	if first := postSolve(t, ts, "strategy=mac", sampleInstance); first.Cached {
		t.Fatal("first solve reported cached")
	}
	reordered := `
vars 3
dom 3
con 2 1 : 2 1 | 0 1 | 1 2 | 1 0 | 2 0 | 0 2
con 0 1 : 2 1 | 2 0 | 1 2 | 1 0 | 0 2 | 0 1
`
	if hit := postSolve(t, ts, "strategy=mac", reordered); !hit.Cached {
		t.Fatal("reordered copy missed the cache")
	}
	if d := obsExecuted.Load() - executedBefore; d != 1 {
		t.Fatalf("engine runs for an instance and its reordered copy = %d, want 1", d)
	}
	oneRowOff := `
vars 3
dom 3
con 0 1 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 1
con 1 2 : 0 1 | 0 2 | 1 0 | 1 2 | 2 0 | 2 2
`
	if miss := postSolve(t, ts, "strategy=mac", oneRowOff); miss.Cached {
		t.Fatal("a copy differing in one row hit the cache")
	}
	if d := obsExecuted.Load() - executedBefore; d != 2 {
		t.Fatalf("engine runs = %d, want 2", d)
	}
}
