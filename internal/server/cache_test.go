package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kodan/internal/telemetry"
)

// testCache builds a cache over a fresh registry, returning both so tests
// can check the registry series.
func testCache(capacity int) (*Cache, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return newCache(context.Background(), capacity, reg.Scope("server.cache")), reg
}

// value is a computation that returns v at once.
func value(v interface{}) func(context.Context) (interface{}, error) {
	return func(context.Context) (interface{}, error) { return v, nil }
}

func TestCacheMissThenHit(t *testing.T) {
	c, _ := testCache(0)
	calls := 0
	fn := func(context.Context) (interface{}, error) {
		calls++
		return "v", nil
	}
	v, src, err := c.Do(context.Background(), "k", fn)
	if err != nil || v != "v" || src != CacheMiss {
		t.Fatalf("first Do = (%v, %v, %v), want (v, miss, nil)", v, src, err)
	}
	v, src, err = c.Do(context.Background(), "k", fn)
	if err != nil || v != "v" || src != CacheHit {
		t.Fatalf("second Do = (%v, %v, %v), want (v, hit, nil)", v, src, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	hits, misses, _, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestCacheSingleFlightJoin(t *testing.T) {
	c, _ := testCache(0)
	release := make(chan struct{})
	started := make(chan struct{})
	var calls atomic.Int64
	fn := func(context.Context) (interface{}, error) {
		calls.Add(1)
		close(started)
		<-release
		return 42, nil
	}
	var wg sync.WaitGroup
	results := make([]CacheSource, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, results[0], _ = c.Do(context.Background(), "k", fn)
	}()
	<-started
	for i := 1; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, src, err := c.Do(context.Background(), "k", fn)
			if err != nil || v != 42 {
				t.Errorf("join %d: (%v, %v)", i, v, err)
			}
			results[i] = src
		}(i)
	}
	waitForCond(t, func() bool { _, _, joins, _ := c.Stats(); return joins == 7 })
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if results[0] != CacheMiss {
		t.Fatalf("leader source = %v, want miss", results[0])
	}
	for i, src := range results[1:] {
		if src != CacheJoin {
			t.Fatalf("caller %d source = %v, want join", i+1, src)
		}
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c, _ := testCache(0)
	boom := errors.New("boom")
	calls := 0
	fn := func(context.Context) (interface{}, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := c.Do(context.Background(), "k", fn); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	v, src, err := c.Do(context.Background(), "k", fn)
	if err != nil || v != "ok" || src != CacheMiss {
		t.Fatalf("retry Do = (%v, %v, %v), want (ok, miss, nil)", v, src, err)
	}
}

func TestCacheLRUEvictionAndCounters(t *testing.T) {
	// Capacity 2: the third distinct key evicts the least recently used.
	c, reg := testCache(2)
	fill := func(k string) {
		if _, _, err := c.Do(context.Background(), k, value(k)); err != nil {
			t.Fatal(err)
		}
	}
	fill("a")
	fill("b")
	// Touch "a" so "b" becomes least recently used.
	if _, src, _ := c.Do(context.Background(), "a", nil); src != CacheHit {
		t.Fatalf("touch a: src = %v, want hit", src)
	}
	fill("c") // evicts b
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, src, _ := c.Do(context.Background(), "a", nil); src != CacheHit {
		t.Fatalf("a should survive eviction, got %v", src)
	}
	calls := 0
	if _, src, _ := c.Do(context.Background(), "b", func(context.Context) (interface{}, error) { calls++; return "b2", nil }); src != CacheMiss || calls != 1 {
		t.Fatalf("b should have been evicted: src=%v calls=%d", src, calls)
	}
	_, _, _, evictions := c.Stats()
	if evictions < 1 {
		t.Fatalf("evictions = %d, want >= 1", evictions)
	}
	if got := reg.Counter("server.cache.evictions").Load(); got != evictions {
		t.Fatalf("registry eviction counter = %d, want %d", got, evictions)
	}
}

func TestCacheLastWaiterCancelStopsComputation(t *testing.T) {
	c, _ := testCache(0)
	cancelled := make(chan struct{})
	started := make(chan struct{})
	fn := func(ctx context.Context) (interface{}, error) {
		close(started)
		<-ctx.Done()
		close(cancelled)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := c.Do(ctx, "k", fn); !errors.Is(err, context.Canceled) {
			t.Errorf("Do err = %v, want canceled", err)
		}
	}()
	<-started
	cancel()
	select {
	case <-cancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("computation not cancelled after last waiter left")
	}
	<-done
	// The slot is cleared: a new request restarts the computation.
	v, src, err := c.Do(context.Background(), "k", value("fresh"))
	if err != nil || v != "fresh" || src != CacheMiss {
		t.Fatalf("restart Do = (%v, %v, %v), want (fresh, miss, nil)", v, src, err)
	}
}

// TestCacheInFlightNeverEvicted holds one computation in flight in a
// one-entry cache while other keys churn it concurrently. The held entry
// must survive every eviction: a later caller joins it and, once it
// completes, hits it. Every Do call is accounted exactly once as a hit, a
// miss or a join, in Stats and in the registry series alike.
func TestCacheInFlightNeverEvicted(t *testing.T) {
	c, reg := testCache(1)
	var calls atomic.Int64
	do := func(key string, fn func(context.Context) (interface{}, error)) (interface{}, CacheSource, error) {
		calls.Add(1)
		return c.Do(context.Background(), key, fn)
	}

	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	held := func(context.Context) (interface{}, error) {
		once.Do(func() { close(started) })
		<-release
		return "held", nil
	}
	leader := make(chan CacheSource, 1)
	go func() {
		_, src, err := do("held", held)
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		leader <- src
	}()
	<-started

	const churners, rounds = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("churn-%d-%d", g, i%5)
				if v, _, err := do(key, value(key)); err != nil || v != key {
					t.Errorf("churn %s = (%v, %v)", key, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if _, _, _, ev := c.Stats(); ev == 0 {
		t.Fatal("churn through a one-entry cache evicted nothing")
	}
	c.mu.Lock()
	e := c.entries["held"]
	c.mu.Unlock()
	if e == nil {
		t.Fatal("in-flight entry evicted by churn")
	}

	joined := make(chan CacheSource, 1)
	go func() {
		v, src, err := do("held", held)
		if err != nil || v != "held" {
			t.Errorf("joiner = (%v, %v)", v, err)
		}
		joined <- src
	}()
	waitForCond(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		e := c.entries["held"]
		return e == nil || e.waiters == 2
	})
	close(release)
	if src := <-leader; src != CacheMiss {
		t.Errorf("leader source = %v, want miss", src)
	}
	if src := <-joined; src != CacheJoin {
		t.Errorf("later caller source = %v, want join: the in-flight entry was evicted", src)
	}
	if v, src, err := do("held", nil); err != nil || v != "held" || src != CacheHit {
		t.Errorf("after completion = (%v, %v, %v), want (held, hit, nil)", v, src, err)
	}

	hits, misses, joins, evictions := c.Stats()
	if got := hits + misses + joins; got != calls.Load() {
		t.Errorf("hits %d + misses %d + joins %d = %d, want %d Do calls", hits, misses, joins, got, calls.Load())
	}
	for name, want := range map[string]int64{"hits": hits, "misses": misses, "joins": joins, "evictions": evictions} {
		if got := reg.Counter("server.cache." + name).Load(); got != want {
			t.Errorf("server.cache.%s = %d, want %d", name, got, want)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (the bound)", c.Len())
	}
}
