// Package parallel is the evaluation engine's deterministic fan-out
// primitive. Every hot sweep in the reproduction — per-satellite
// propagation and contact search in sim, per-tiling suites in core,
// per-frame rendering in dataset, the per-figure sweeps in experiments —
// is a loop over independent items. Map runs such a loop on a bounded
// worker pool and returns item i's result at index i, so the observable
// output is identical to the sequential loop: item i's result depends
// only on item i (callers derive any randomness from a pure per-item
// seed, see xrand), and fn's return value is its only per-item output, so
// scheduling order can never reorder, duplicate, or drop a row. That
// invariant is what lets the golden-determinism tests assert
// byte-identical tables, CSV, and JSON at any worker count.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kodan/internal/telemetry"
)

// Workers resolves a worker-count knob: n > 0 is used as given, anything
// else falls back to GOMAXPROCS. The zero value of a config field
// therefore means "use all the hardware" while 1 forces the sequential
// path.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines and returns the results in index order. It returns the
// first error by item index (not by completion time), so the reported
// error is the same one the sequential loop would have surfaced. A fn
// error stops the launch of items above its index, and ctx cancellation
// the launch of any item; items already running complete, and Map
// returns only after every worker has exited.
// workers <= 1 runs the loop inline on the calling goroutine.
//
// When the context carries a telemetry probe, Map reports worker
// occupancy (parallel.active gauge, whose max is the realized
// parallelism), item counts, per-item run time, and queue wait — the
// delay between the sweep starting and a worker picking an item up. With
// no probe attached the only cost over the uninstrumented loop is a
// context value lookup per call and a nil check per item.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, max(n, 0))
	err := forEach(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		out[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEach is Map's engine: it runs fn(ctx, i) for every i in [0, n) with
// Map's scheduling, error and cancellation rules. fn writes only its own
// index's slot.
func forEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	probe := newForEachProbe(ctx)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			start := probe.itemStart()
			if err := fn(ctx, i); err != nil {
				return err
			}
			probe.itemDone(start)
		}
		return nil
	}

	// failed is the lowest index whose fn failed (n while none has). An
	// item above it is skipped: the sequential loop would never have
	// reached it. Items below it run on with the caller's context, since
	// one of them may fail first in index order; only an outside
	// cancellation cuts them short.
	var failed atomic.Int64
	failed.Store(int64(n))
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || int64(i) > failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				start := probe.itemStart()
				if err := fn(ctx, i); err != nil {
					errs[i] = err
					for lo := failed.Load(); int64(i) < lo; lo = failed.Load() {
						if failed.CompareAndSwap(lo, int64(i)) {
							break
						}
					}
					return
				}
				probe.itemDone(start)
			}
		}()
	}
	wg.Wait()
	return firstError(errs)
}

// forEachProbe holds the metric handles of one instrumented sweep; the
// zero value (no registry on the context) makes every call a nil no-op.
type forEachProbe struct {
	active    *telemetry.Gauge
	items     *telemetry.Counter
	itemSecs  *telemetry.Histogram
	queueWait *telemetry.Histogram
	start     time.Time
}

// newForEachProbe resolves the sweep's metrics once, outside the item
// loop, so the per-item cost is a nil check.
func newForEachProbe(ctx context.Context) forEachProbe {
	reg := telemetry.ProbeFrom(ctx).Metrics
	if reg == nil {
		return forEachProbe{}
	}
	scope := reg.Scope("parallel")
	return forEachProbe{
		active:    scope.Gauge("active"),
		items:     scope.Counter("items"),
		itemSecs:  scope.Histogram("item_seconds"),
		queueWait: scope.Histogram("queue_wait_seconds"),
		start:     time.Now(),
	}
}

// itemStart marks a worker busy and returns the item's start time (zero
// when uninstrumented).
func (p forEachProbe) itemStart() time.Time {
	if p.active == nil {
		return time.Time{}
	}
	now := time.Now()
	p.active.Add(1)
	p.queueWait.Observe(now.Sub(p.start).Seconds())
	return now
}

// itemDone marks the worker idle and records the item's run time.
func (p forEachProbe) itemDone(start time.Time) {
	if p.active == nil {
		return
	}
	p.active.Add(-1)
	p.items.Inc()
	p.itemSecs.Observe(time.Since(start).Seconds())
}

// firstError picks the error the sequential loop would have returned: the
// lowest-index fn failure. Context errors only win when no fn failed —
// they mark items abandoned to an outside cancellation.
func firstError(errs []error) error {
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if err == context.Canceled || err == context.DeadlineExceeded {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return err
	}
	return ctxErr
}
