package serve

import (
	"container/list"
	"sync"
)

// CacheKey identifies one cacheable solve: a digest of the instance,
// insensitive to incidental instance orderings, plus the strategy that
// computes it. cspd fills Hash and Hash2 with the two lanes of its keyed
// 128-bit cspio.Digest; a caller keying by one 64-bit hash leaves Hash2
// zero. Timeout is deliberately not part of the key — a completed
// (non-aborted) result is valid under any deadline.
type CacheKey struct {
	Hash     uint64
	Hash2    uint64
	Strategy string
}

// Cache is a mutex-guarded LRU of solve results. A nil *Cache never hits
// and never stores, so the daemon can disable caching with a flag.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[CacheKey]*list.Element
}

type cacheEntry struct {
	key CacheKey
	val any
}

// NewCache returns an LRU holding up to capacity entries. capacity <= 0
// returns nil (caching disabled).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[CacheKey]*list.Element, capacity),
	}
}

// Get returns the cached value for k, refreshing its recency. Every lookup
// counts once in cspd.cache.outcome, as hit or miss.
func (c *Cache) Get(k CacheKey) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		obsCacheOutcome.Inc("miss")
		return nil, false
	}
	c.order.MoveToFront(el)
	obsCacheOutcome.Inc("hit")
	return el.Value.(*cacheEntry).val, true
}

// Add stores v under k as the most recent entry, evicting the least
// recently used entry if the cache is over capacity.
func (c *Cache) Add(k CacheKey, v any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, val: v})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		obsCacheOutcome.Inc("evict")
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
