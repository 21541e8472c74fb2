// Package serve is the concurrent query-serving layer over the
// SpatialHadoop core: an HTTP front end whose range and kNN endpoints run
// on the serving executor (a scatter over the partitions' holders: the
// master's memory tier, or the serving workers) unless the planner sends
// them to MapReduce, and whose join and plot endpoints run as MapReduce
// jobs under the cluster's shared worker slot pool and job admission
// controller. An LRU result cache is keyed by (file, DFS mutation epoch,
// canonicalized query), so repeated queries over unchanged files skip
// execution entirely, and any mutation of an input file invalidates
// exactly the results derived from it.
package serve

import (
	"container/list"
	"sync"

	"spatialhadoop/internal/obs"
)

// Cache metric names, registered in the server's obs registry.
const (
	CounterCacheHits      = "serve.cache.hits"
	CounterCacheMisses    = "serve.cache.misses"
	CounterCacheEvictions = "serve.cache.evictions"
	GaugeCacheEntries     = "serve.cache.entries"
)

// Cache is a bounded LRU over fully rendered response bodies. Keys embed
// the source files' DFS epochs, so entries for a mutated file are never
// hit again (they age out at the LRU tail); the cache itself never needs
// explicit invalidation. It is safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	reg   *obs.Registry // optional hit/miss/eviction counters
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewCache creates a cache holding up to max entries; max <= 0 disables
// caching (every Get misses, Put is a no-op). reg may be nil.
func NewCache(max int, reg *obs.Registry) *Cache {
	return &Cache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		reg:   reg,
	}
}

// Get returns the cached body for key, marking it most recently used.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c.max <= 0 {
		c.count(CounterCacheMisses)
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	var body []byte
	if ok {
		c.ll.MoveToFront(el)
		// Grab the slice inside the lock: Put updates an existing entry's
		// body in place, so reading it after unlock would race.
		body = el.Value.(*cacheEntry).body
	}
	c.mu.Unlock()
	if !ok {
		c.count(CounterCacheMisses)
		return nil, false
	}
	c.count(CounterCacheHits)
	return body, true
}

// Put stores body under key, evicting least-recently-used entries over
// capacity. The caller must not modify body afterwards.
func (c *Cache) Put(key string, body []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		c.mu.Unlock()
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	evicted := 0
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		evicted++
	}
	n := c.ll.Len()
	c.mu.Unlock()
	if evicted > 0 && c.reg != nil {
		c.reg.Inc(CounterCacheEvictions, int64(evicted))
	}
	if c.reg != nil {
		c.reg.SetGauge(GaugeCacheEntries, float64(n))
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Contains reports whether key is cached, without touching recency — the
// probe the eviction-order tests use.
func (c *Cache) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

func (c *Cache) count(name string) {
	if c.reg != nil {
		c.reg.Inc(name, 1)
	}
}
