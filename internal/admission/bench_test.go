package admission

import (
	"context"
	"sync/atomic"
	"testing"
)

// BenchmarkFairPoolAcquireRelease times one Acquire/Release pair on the
// uncontended fast path, and under contention: GOMAXPROCS goroutines from
// two tenants sharing one worker slot, so most acquisitions queue and are
// granted by the fair scheduler on Release.
func BenchmarkFairPoolAcquireRelease(b *testing.B) {
	ctx := context.Background()
	b.Run("free", func(b *testing.B) {
		p := NewFairPool(FairPoolOptions{Workers: 1})
		b.ReportAllocs()
		for b.Loop() {
			if err := p.Acquire(ctx, "a"); err != nil {
				b.Fatal(err)
			}
			p.Release()
		}
	})
	b.Run("contended", func(b *testing.B) {
		p := NewFairPool(FairPoolOptions{Workers: 1, QueueDepth: 1 << 16})
		var next atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			tenant := []string{"ops", "science"}[next.Add(1)%2]
			for pb.Next() {
				if err := p.Acquire(ctx, tenant); err != nil {
					b.Error(err)
					return
				}
				p.Release()
			}
		})
	})
}
