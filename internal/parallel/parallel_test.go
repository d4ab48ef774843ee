package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers(0) = %d, want %d", got, want)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d, want 7", got)
	}
}

// TestForEachMatchesSequential is the engine's core contract: the output
// slice is identical to the sequential loop at every worker count.
func TestForEachMatchesSequential(t *testing.T) {
	const n = 257
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 3, 4, 8, 33, n + 5} {
		got := make([]int, n)
		err := forEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			got[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestForEachRunsEveryItemExactlyOnce guards against dropped or duplicated
// indices under contention.
func TestForEachRunsEveryItemExactlyOnce(t *testing.T) {
	const n = 1000
	counts := make([]atomic.Int32, n)
	if err := forEach(context.Background(), 16, n, func(_ context.Context, i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("item %d ran %d times", i, c)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	if err := forEach(context.Background(), workers, 64, func(_ context.Context, _ int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestForEachFirstErrorByIndex asserts the parallel error matches the
// sequential loop's: lowest failing index wins regardless of completion
// order.
func TestForEachFirstErrorByIndex(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 4} {
		err := forEach(context.Background(), workers, 32, func(_ context.Context, i int) error {
			switch i {
			case 3:
				// Fail late so a higher index can fail first in real time.
				time.Sleep(20 * time.Millisecond)
				return errLow
			case 20:
				return errHigh
			}
			return nil
		})
		// Sequential stops at index 3 and never reaches 20; parallel may
		// see both but must still report the lowest index.
		if workers == 1 {
			if !errors.Is(err, errLow) {
				t.Fatalf("workers=1: err = %v, want %v", err, errLow)
			}
			continue
		}
		if !errors.Is(err, errLow) && !errors.Is(err, errHigh) {
			t.Fatalf("workers=%d: err = %v, want a fn error", workers, err)
		}
		if errors.Is(err, errHigh) {
			t.Fatalf("workers=%d: reported higher-index error before lower", workers)
		}
	}
}

// TestForEachLaterFailureKeepsEarlierItemRunning is the deterministic
// form of the case above: item 3 is still running when item 20 fails, and
// it returns its context's error if the later failure cancelled it. The
// sequential loop fails at item 3 and never reaches 20, so item 3's own
// error must be the one reported.
func TestForEachLaterFailureKeepsEarlierItemRunning(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for run := 0; run < 5; run++ {
		err := forEach(context.Background(), 4, 32, func(ctx context.Context, i int) error {
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				if err := ctx.Err(); err != nil {
					return err
				}
				return errLow
			case 20:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("run %d: err = %v, want %v", run, err, errLow)
		}
	}
}

func TestForEachErrorStopsLaunchingItems(t *testing.T) {
	var ran atomic.Int32
	err := forEach(context.Background(), 2, 10_000, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if r := ran.Load(); r == 10_000 {
		t.Fatal("error did not stop the sweep")
	}
}

func TestForEachHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := forEach(ctx, workers, 100, func(_ context.Context, _ int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestForEachMidFlightCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	err := forEach(ctx, 2, 10_000, func(_ context.Context, _ int) error {
		once.Do(func() { close(started); cancel() })
		return nil
	})
	<-started
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	if err := forEach(context.Background(), 4, 0, func(_ context.Context, _ int) error {
		called = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

// TestMapReturnsResultsInIndexOrder is Map's contract: the result slice
// equals the sequential loop's at every worker count, and an error
// returns no partial results.
func TestMapReturnsResultsInIndexOrder(t *testing.T) {
	const n = 257
	for _, workers := range []int{1, 2, 3, 8, n + 5} {
		got, err := Map(context.Background(), workers, n, func(_ context.Context, i int) (string, error) {
			return fmt.Sprint(i * i), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != fmt.Sprint(i*i) {
				t.Fatalf("workers=%d: out[%d] = %s, want %d", workers, i, v, i*i)
			}
		}

		boom := errors.New("boom")
		got, err = Map(context.Background(), workers, n, func(_ context.Context, i int) (string, error) {
			if i == n/2 {
				return "", boom
			}
			return "ok", nil
		})
		if !errors.Is(err, boom) || got != nil {
			t.Fatalf("workers=%d: Map = %d results, %v; want nil, boom", workers, len(got), err)
		}
	}
	if got, err := Map(context.Background(), 4, 0, func(context.Context, int) (int, error) { return 1, nil }); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("Map over no items = %v, %v; want an empty slice", got, err)
	}
}
