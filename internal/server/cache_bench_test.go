package server

import (
	"context"
	"strconv"
	"testing"
)

// BenchmarkCacheDo times the three ways a lookup is served: a hit on a
// completed entry, a miss that runs an instant computation (and, past the
// LRU bound, evicts), and a join on an in-flight computation by a caller
// whose context is already done, so it attaches and detaches at once.
func BenchmarkCacheDo(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		c, _ := testCache(0)
		if _, _, err := c.Do(context.Background(), "k", value("v")); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, src, _ := c.Do(context.Background(), "k", value("v")); src != CacheHit {
				b.Fatalf("source %v, want hit", src)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		c, _ := testCache(1024)
		keys := make([]string, b.N)
		for i := range keys {
			keys[i] = strconv.Itoa(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, src, _ := c.Do(context.Background(), keys[i], value("v")); src != CacheMiss {
				b.Fatalf("source %v, want miss", src)
			}
		}
	})
	b.Run("join", func(b *testing.B) {
		c, _ := testCache(0)
		started, gate := make(chan struct{}), make(chan struct{})
		leader := make(chan error, 1)
		go func() {
			_, _, err := c.Do(context.Background(), "k", func(context.Context) (interface{}, error) {
				close(started)
				<-gate
				return "v", nil
			})
			leader <- err
		}()
		<-started
		done, cancel := context.WithCancel(context.Background())
		cancel()
		b.ReportAllocs()
		for b.Loop() {
			if _, src, _ := c.Do(done, "k", value("v")); src != CacheJoin {
				b.Fatalf("source %v, want join", src)
			}
		}
		close(gate)
		if err := <-leader; err != nil {
			b.Fatal(err)
		}
	})
}
