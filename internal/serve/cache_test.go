package serve

import "testing"

func k(h uint64) CacheKey { return CacheKey{Hash: h, Strategy: "portfolio"} }

func TestCacheDisabled(t *testing.T) {
	for _, c := range []*Cache{nil, NewCache(0), NewCache(-3)} {
		c.Add(k(1), "x")
		if _, ok := c.Get(k(1)); ok {
			t.Fatal("disabled cache returned a hit")
		}
		if c.Len() != 0 {
			t.Fatalf("disabled cache has length %d", c.Len())
		}
	}
}

func TestCacheHitMissEvict(t *testing.T) {
	withObs(t)
	hits, misses, evicts := obsCacheOutcome.Load("hit"), obsCacheOutcome.Load("miss"), obsCacheOutcome.Load("evict")
	c := NewCache(2)
	if _, ok := c.Get(k(1)); ok {
		t.Fatal("empty cache hit")
	}
	c.Add(k(1), "a")
	c.Add(k(2), "b")
	if v, ok := c.Get(k(1)); !ok || v != "a" {
		t.Fatalf("Get(1) = %v,%v", v, ok)
	}
	// 1 is now most recent; adding 3 must evict 2.
	c.Add(k(3), "c")
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if v, ok := c.Get(k(1)); !ok || v != "a" {
		t.Fatalf("recent entry 1 evicted: %v,%v", v, ok)
	}
	if v, ok := c.Get(k(3)); !ok || v != "c" {
		t.Fatalf("new entry 3 missing: %v,%v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if d := obsCacheOutcome.Load("hit") - hits; d != 3 {
		t.Fatalf("hit delta = %d, want 3", d)
	}
	if d := obsCacheOutcome.Load("miss") - misses; d != 2 {
		t.Fatalf("miss delta = %d, want 2", d)
	}
	if d := obsCacheOutcome.Load("evict") - evicts; d != 1 {
		t.Fatalf("evict delta = %d, want 1", d)
	}
}

func TestCacheUpdateRefreshes(t *testing.T) {
	c := NewCache(2)
	c.Add(k(1), "a")
	c.Add(k(2), "b")
	c.Add(k(1), "a2") // update refreshes recency, so 2 is now oldest
	c.Add(k(3), "c")
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("entry 2 should have been the eviction victim")
	}
	if v, ok := c.Get(k(1)); !ok || v != "a2" {
		t.Fatalf("updated entry: %v,%v, want a2", v, ok)
	}
}

func TestCacheKeyDistinguishesKnobs(t *testing.T) {
	c := NewCache(8)
	c.Add(CacheKey{Hash: 7, Strategy: "mac"}, "mac")
	if _, ok := c.Get(CacheKey{Hash: 7, Strategy: "cbj"}); ok {
		t.Fatal("strategy not part of the key")
	}
	if _, ok := c.Get(CacheKey{Hash: 8, Strategy: "mac"}); ok {
		t.Fatal("hash not part of the key")
	}
	if v, ok := c.Get(CacheKey{Hash: 7, Strategy: "mac"}); !ok || v != "mac" {
		t.Fatalf("strategy-keyed entry: %v,%v", v, ok)
	}
}

// TestCacheOutcomeVec pins the labeled outcome counter: one hit, one miss
// and one evict each move exactly their series.
func TestCacheOutcomeVec(t *testing.T) {
	withObs(t)
	hit0 := obsCacheOutcome.Load("hit")
	miss0 := obsCacheOutcome.Load("miss")
	evict0 := obsCacheOutcome.Load("evict")

	c := NewCache(1)
	k1 := CacheKey{Hash: 1}
	k2 := CacheKey{Hash: 2}
	c.Get(k1)       // miss
	c.Add(k1, "v1") //
	c.Get(k1)       // hit
	c.Add(k2, "v2") // evicts k1
	if d := obsCacheOutcome.Load("miss") - miss0; d != 1 {
		t.Fatalf("miss delta = %d, want 1", d)
	}
	if d := obsCacheOutcome.Load("hit") - hit0; d != 1 {
		t.Fatalf("hit delta = %d, want 1", d)
	}
	if d := obsCacheOutcome.Load("evict") - evict0; d != 1 {
		t.Fatalf("evict delta = %d, want 1", d)
	}
}
