package server

import (
	"sync"

	"delorean/internal/runner"
)

// The verdict cache exploits DeLorean's core property: a recorded
// execution replays deterministically, so for a content-addressed
// recording the verdict (and the Perfetto trace) is a pure function of
// (recording id, replay parameters). The cache stores the rendered
// response bytes — not the ReplayResult — so a hit is served
// byte-identical to the cold response without touching the simulator,
// and a single-flight layer (runner.Flight) collapses N concurrent
// identical requests into one simulation whose result every waiter
// shares.
//
// Errors are never cached: a cancelled or timed-out computation must
// not poison the key for later, healthier clients. Divergent verdicts
// ARE cached — a divergence is a well-formed, deterministic 200
// response, and re-simulating would reproduce it.

// cacheKey identifies one deterministic computation: the recording
// (content-addressed, so bytes and spec are implied), the kind of
// output, and every replay parameter that reaches the simulator.
type cacheKey struct {
	id    string
	kind  string // "replay" | "trace"
	seed  uint64
	strat bool
	par   int
}

// cachedVerdict is a rendered response: the exact JSON bytes the cold
// path wrote, plus whether the verdict was divergent (so hits bump the
// replays.divergent counter the same way misses do).
type cachedVerdict struct {
	body      []byte
	divergent bool
}

// verdictCache is an LRU-bounded map from cacheKey to rendered
// responses, with a single-flight joiner for in-flight computations.
// Bounded twice: by entry count and by summed body bytes (trace bodies
// dwarf verdict bodies). The entries form a ring in access order, so a
// hit refreshes its entry in constant time without allocating.
type verdictCache struct {
	maxEntries int
	maxBytes   int64

	mu sync.Mutex
	m  map[cacheKey]*cacheEntry
	// lru is the ring's sentinel: lru.next is the least recently used
	// entry, lru.prev the most recently used.
	lru   cacheEntry
	bytes int64

	flight runner.Flight[cacheKey, cachedVerdict]
}

// cacheEntry is one cached response and its place in the access order.
type cacheEntry struct {
	key        cacheKey
	v          cachedVerdict
	prev, next *cacheEntry
}

func newVerdictCache(maxEntries int, maxBytes int64) *verdictCache {
	c := &verdictCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		m:          make(map[cacheKey]*cacheEntry),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// unlink takes e out of the access order.
func (e *cacheEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// useLocked makes e the most recently used entry.
func (c *verdictCache) useLocked(e *cacheEntry) {
	e.prev, e.next = c.lru.prev, &c.lru
	e.prev.next, c.lru.prev = e, e
}

// get returns the cached response for key, refreshing its recency.
func (c *verdictCache) get(key cacheKey) (cachedVerdict, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return cachedVerdict{}, false
	}
	e.unlink()
	c.useLocked(e)
	return e.v, true
}

// put stores a rendered response and evicts least-recently-used entries
// until both bounds hold again, reporting how many were evicted. A body
// larger than the whole byte budget is not cached at all (it would only
// evict everything and then miss next time anyway).
func (c *verdictCache) put(key cacheKey, v cachedVerdict) (evicted int) {
	if int64(len(v.body)) > c.maxBytes {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if ok {
		c.bytes -= int64(len(e.v.body))
		e.unlink()
	} else {
		e = &cacheEntry{key: key}
		c.m[key] = e
	}
	e.v = v
	c.useLocked(e)
	c.bytes += int64(len(v.body))
	for len(c.m) > 1 && (len(c.m) > c.maxEntries || c.bytes > c.maxBytes) {
		oldest := c.lru.next
		if oldest == e {
			break // never evict the entry just inserted
		}
		c.removeLocked(oldest)
		evicted++
	}
	return evicted
}

// removeLocked drops e from the cache.
func (c *verdictCache) removeLocked(e *cacheEntry) {
	e.unlink()
	c.bytes -= int64(len(e.v.body))
	delete(c.m, e.key)
}

// invalidate drops every cached response for the recording id (admin
// DELETE), reporting how many entries were removed.
func (c *verdictCache) invalidate(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.lru.next; e != &c.lru; {
		next := e.next
		if e.key.id == id {
			c.removeLocked(e)
			n++
		}
		e = next
	}
	return n
}

// clear drops everything (admin DELETE /v1/cache).
func (c *verdictCache) clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.m)
	c.m = make(map[cacheKey]*cacheEntry)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.bytes = 0
	return n
}

// stats reports current occupancy for the metrics surface.
func (c *verdictCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.bytes
}
