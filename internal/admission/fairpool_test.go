package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFairPoolFastPath(t *testing.T) {
	p := NewFairPool(FairPoolOptions{Workers: 2})
	if err := p.Acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.InFlight != 2 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want 2 in flight", st)
	}
	p.Release()
	p.Release()
	if st := p.Stats(); st.InFlight != 0 {
		t.Fatalf("inFlight = %d after release, want 0", st.InFlight)
	}
}

func TestFairPoolRejectsWhenQueueFull(t *testing.T) {
	p := NewFairPool(FairPoolOptions{Workers: 1, QueueDepth: 1})
	if err := p.Acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- p.Acquire(context.Background(), "a") }()
	waitFor(t, func() bool { return p.Stats().Queued == 1 })
	// The queue (depth 1) is full: the next acquire fails fast.
	if err := p.Acquire(context.Background(), "a"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	if got := p.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	p.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
	p.Release()
}

func TestFairPoolZeroDepthRejectsImmediately(t *testing.T) {
	p := NewFairPool(FairPoolOptions{Workers: 1})
	if err := p.Acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(context.Background(), "a"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated with no queueing", err)
	}
	p.Release()
}

func TestFairPoolCancelWhileQueued(t *testing.T) {
	p := NewFairPool(FairPoolOptions{Workers: 1, QueueDepth: 4})
	if err := p.Acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- p.Acquire(ctx, "a") }()
	waitFor(t, func() bool { return p.Stats().Queued == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	if st := p.Stats(); st.Queued != 0 {
		t.Fatalf("queued = %d after cancel, want 0", st.Queued)
	}
	// Releasing the original slot must leave the pool usable.
	p.Release()
	if err := p.Acquire(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	p.Release()
}

func TestFairPoolWeightedShare(t *testing.T) {
	// One worker, queues from a weight-3 tenant and a weight-1 tenant.
	// Grants should interleave roughly 3:1, and the light tenant must be
	// served within any window of ~(3+1) grants — never starved.
	p := NewFairPool(FairPoolOptions{
		Workers:    1,
		QueueDepth: 32,
		Weights:    map[string]float64{"heavy": 3, "light": 1},
	})
	if err := p.Acquire(context.Background(), "seed"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	acquire := func(tenant string) {
		defer wg.Done()
		if err := p.Acquire(context.Background(), tenant); err != nil {
			t.Errorf("%s acquire: %v", tenant, err)
			return
		}
		mu.Lock()
		order = append(order, tenant)
		mu.Unlock()
		p.Release()
	}
	// Enqueue the full workload before any grant happens. Enqueue order is
	// deterministic because we wait for each waiter to appear.
	total := 0
	for i := 0; i < 12; i++ {
		wg.Add(1)
		total++
		go acquire("heavy")
		waitFor(t, func() bool { return p.Stats().Queued == total })
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		total++
		go acquire("light")
		waitFor(t, func() bool { return p.Stats().Queued == total })
	}
	p.Release() // start granting
	wg.Wait()
	if len(order) != 16 {
		t.Fatalf("granted %d, want 16", len(order))
	}
	// Starvation check: within every window of 5 consecutive grants the
	// light tenant appears at least once while it still has waiters (its
	// last waiter is granted by position 15 at the latest, weighted 3:1).
	lightSeen := 0
	for i, tenant := range order {
		if tenant == "light" {
			lightSeen++
		}
		if i >= 4 && lightSeen == 0 {
			t.Fatalf("light tenant starved through first %d grants: %v", i+1, order)
		}
	}
	if lightSeen != 4 {
		t.Fatalf("light grants = %d, want 4 (order %v)", lightSeen, order)
	}
}

func TestFairPoolTenantCardinalityBound(t *testing.T) {
	p := NewFairPool(FairPoolOptions{Workers: 1, QueueDepth: 1})
	if err := p.Acquire(context.Background(), "holder"); err != nil {
		t.Fatal(err)
	}
	// t0..t63 get named queues; t64 and later land on the shared overflow
	// queue.
	const queued = DefaultMaxTenants + 1
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		tenant, want := fmt.Sprintf("t%d", i), i+1
		go func() { errs <- p.Acquire(context.Background(), tenant) }()
		waitFor(t, func() bool { return p.Stats().Queued == want })
	}
	// The overflow queue (depth 1) already holds t64's waiter: a further
	// new tenant is rejected.
	if err := p.Acquire(context.Background(), "t65"); !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated via overflow queue", err)
	}
	for i := 0; i < queued; i++ {
		p.Release()
		if err := <-errs; err != nil {
			t.Fatalf("queued acquire %d: %v", i, err)
		}
	}
	p.Release()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
