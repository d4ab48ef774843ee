package server

import (
	"container/list"
	"context"
	"sync"

	"kodan/internal/telemetry"
)

// Cache is the server's single-flight result cache: one mutex, one map,
// one LRU over completed entries.
//
// For each key at most one computation runs at a time; concurrent callers
// join the in-flight computation, successful values are retained until
// the LRU bound evicts them, and errors are never cached. Every cached
// value is a deterministic function of its key, so whether a response was
// a hit, a join or a miss never changes its bytes.
//
// Cancellation is reference-counted per entry: the computation runs on a
// context derived from the cache's base context, and when the last
// interested caller detaches, the computation is cancelled and the slot
// cleared for a clean restart. In-flight entries are not in the LRU, so
// they are never evicted.
//
// The hits/misses/joins/evictions counters live in the server's telemetry
// registry (scope "server.cache"), so /metrics, the flight recorder and
// the SLO engine read one set of series.
type Cache struct {
	base     context.Context
	capacity int // completed entries retained; 0 = unbounded

	hits, misses, joins, evictions *telemetry.Counter

	mu      sync.Mutex
	entries map[string]*cacheEntry
	order   *list.List // completed entries, most recently used in front
}

type cacheEntry struct {
	done      chan struct{}
	val       interface{}
	err       error
	waiters   int
	completed bool
	cancel    context.CancelFunc
	elem      *list.Element // position in the LRU once completed
}

// CacheSource says how a cache lookup was served.
type CacheSource int

// Lookup outcomes.
const (
	// CacheMiss means the caller became the leader and computed the value.
	CacheMiss CacheSource = iota
	// CacheHit means a previously completed value was returned.
	CacheHit
	// CacheJoin means the caller attached to an in-flight computation
	// (single-flight deduplication).
	CacheJoin
)

// String implements fmt.Stringer, for the X-Kodan-Cache response header.
func (s CacheSource) String() string {
	switch s {
	case CacheHit:
		return "hit"
	case CacheJoin:
		return "join"
	default:
		return "miss"
	}
}

// newCache builds a cache whose computations are bounded by base: when
// base is cancelled (server shutdown), every in-flight computation is too.
// capacity bounds completed entries (0 = unbounded); scope receives the
// counters.
func newCache(base context.Context, capacity int, scope *telemetry.Scope) *Cache {
	return &Cache{
		base:      base,
		capacity:  capacity,
		hits:      scope.Counter("hits"),
		misses:    scope.Counter("misses"),
		joins:     scope.Counter("joins"),
		evictions: scope.Counter("evictions"),
		entries:   make(map[string]*cacheEntry),
		order:     list.New(),
	}
}

// Capacity returns the completed-entry bound (0 = unbounded).
func (c *Cache) Capacity() int { return c.capacity }

// Stats returns cumulative hit/miss/join/eviction counts.
func (c *Cache) Stats() (hits, misses, joins, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.joins.Load(), c.evictions.Load()
}

// Len returns the number of completed entries plus in-flight computations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Do returns the cached value for key, or computes it with fn. fn receives
// a context tied to the lifetime of the interested callers; ctx only
// governs how long this caller waits. On ctx expiry the caller detaches
// and receives ctx.Err() while the computation continues for any remaining
// waiters.
func (c *Cache) Do(ctx context.Context, key string, fn func(context.Context) (interface{}, error)) (interface{}, CacheSource, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.completed {
			c.hits.Inc()
			c.order.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.val, CacheHit, e.err
		}
		e.waiters++
		c.joins.Inc()
		c.mu.Unlock()
		return c.wait(ctx, key, e, CacheJoin)
	}

	cctx, cancel := context.WithCancel(c.base)
	// The computation is detached from the leader's cancellation (it
	// belongs to every waiter), but keeps the leader's identity: its spans
	// parent under the leader's request span and carry its request ID.
	cctx = telemetry.PropagateTelemetry(ctx, cctx)
	e := &cacheEntry{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.entries[key] = e
	c.misses.Inc()
	c.mu.Unlock()

	go func() {
		val, err := fn(cctx)
		c.mu.Lock()
		e.val, e.err = val, err
		e.completed = true
		if c.entries[key] == e {
			if err != nil {
				// Never cache failures; the next request retries.
				delete(c.entries, key)
			} else {
				e.elem = c.order.PushFront(key)
				c.evictLocked()
			}
		}
		close(e.done)
		c.mu.Unlock()
		cancel()
	}()
	return c.wait(ctx, key, e, CacheMiss)
}

// evictLocked drops least-recently-used completed entries until the cache
// is back under its bound.
func (c *Cache) evictLocked() {
	if c.capacity == 0 {
		return
	}
	for c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(string))
		c.evictions.Inc()
	}
}

// wait blocks until the entry completes or the caller's context is done.
func (c *Cache) wait(ctx context.Context, key string, e *cacheEntry, src CacheSource) (interface{}, CacheSource, error) {
	select {
	case <-e.done:
		return e.val, src, e.err
	case <-ctx.Done():
		c.mu.Lock()
		e.waiters--
		if e.waiters == 0 && !e.completed {
			// Last interested caller gone: stop the computation and clear
			// the slot so a future request restarts it.
			e.cancel()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
		}
		c.mu.Unlock()
		return nil, src, ctx.Err()
	}
}
