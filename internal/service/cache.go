package service

import (
	"container/list"
	"sync"

	"timeprotection/internal/store"
)

// CacheStats is a snapshot of the result cache's counters for /metricz.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Bytes     int64  `json:"bytes"`
	Evictions uint64 `json:"evictions"`
}

// Cache is a content-addressed in-memory result cache. Keys are the
// SHA-256 of a canonical request description (artefact, platform,
// canonical Config), so two requests that mean the same run hash to the
// same entry no matter how they were spelled. Runs are deterministic,
// so entries never expire; a bounded entry count with LRU eviction
// keeps memory finite under many distinct configs.
type Cache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewCache builds a cache bounded to max entries (max <= 0 means a
// default of 1024).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 1024
	}
	return &Cache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// ContentKey hashes a canonical request description into the cache's
// address space, which is the durable store's.
func ContentKey(canonical string) string { return store.Key(canonical) }

// Get returns the cached body for a key. The returned slice is shared;
// callers must not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Peek returns the cached body without touching the hit/miss counters
// or the LRU order. The singleflight re-check uses it: that lookup is
// an internal consistency check for a request whose one Get already
// counted, so counting it again would skew the /metricz hit rate.
func (c *Cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*cacheEntry).body, true
	}
	return nil, false
}

// Put stores a body under a key, evicting the least recently used
// entries beyond the bound. Storing an existing key is a no-op (bodies
// are deterministic, so the stored value is already correct).
func (c *Cache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	c.bytes += int64(len(body))
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		e := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.body))
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Entries:   c.ll.Len(),
		Capacity:  c.max,
		Bytes:     c.bytes,
		Evictions: c.evictions,
	}
}
