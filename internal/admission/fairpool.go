package admission

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrSaturated is returned by FairPool.Acquire when every worker slot is
// busy and the caller's tenant queue is full. HTTP handlers translate it
// into 429 Too Many Requests with a Retry-After header.
var ErrSaturated = errors.New("admission: worker pool saturated")

// FairPool is a bounded worker pool with per-tenant weighted fair
// queueing. At most Workers computations run concurrently. Waiters queue
// per tenant (each tenant may hold up to QueueDepth waiters; beyond that
// its Acquire fails fast with ErrSaturated), and when a worker frees, the
// next grant goes to the waiter with the smallest virtual finish tag —
// start-time fair queueing, where a tenant with weight w consumes virtual
// time at 1/w per request.
// A heavy tenant therefore fills its own queue and gets its weighted share
// of grants, but can never push a light tenant's waiters out of line: the
// light tenant's first waiter always carries one of the smallest tags.
//
// With a single tenant (the server's default "anon" identity) the pool
// is a plain bounded FIFO: one queue of depth QueueDepth, grants in
// arrival order.
type FairPool struct {
	workers int
	depth   int // per-tenant queue bound
	weights map[string]float64

	rejected atomic.Int64

	mu       sync.Mutex
	inFlight int
	queued   int // total waiters across tenants
	vtime    float64
	tenants  map[string]*tenantQueue
}

type tenantQueue struct {
	weight     float64
	lastFinish float64
	waiters    []*waiter // FIFO
}

type waiter struct {
	ready  chan struct{}
	finish float64
}

// FairPoolOptions sizes a FairPool.
type FairPoolOptions struct {
	// Workers bounds concurrently running computations (default 1).
	Workers int
	// QueueDepth bounds each tenant's waiters (default 0: no queueing —
	// a busy pool rejects immediately).
	QueueDepth int
	// Weights maps tenant names to fair-share weights (default 1 each).
	Weights map[string]float64
}

// NewFairPool returns a pool with the given shape.
func NewFairPool(opts FairPoolOptions) *FairPool {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.QueueDepth < 0 {
		opts.QueueDepth = 0
	}
	return &FairPool{
		workers: opts.Workers,
		depth:   opts.QueueDepth,
		weights: opts.Weights,
		tenants: make(map[string]*tenantQueue),
	}
}

// Acquire claims a worker slot for tenant, waiting in the tenant's queue
// if all slots are busy. It returns ErrSaturated immediately when the
// tenant's queue is full, or ctx.Err() if the caller's context ends while
// queued. Every successful Acquire must be paired with Release.
func (p *FairPool) Acquire(ctx context.Context, tenant string) error {
	p.mu.Lock()
	if p.inFlight < p.workers && p.queued == 0 {
		p.inFlight++
		p.mu.Unlock()
		return nil
	}
	tq := p.queueFor(tenant)
	if len(tq.waiters) >= p.depth {
		p.mu.Unlock()
		p.rejected.Add(1)
		return ErrSaturated
	}
	// Start-time fair queueing: the waiter finishes 1/weight virtual units
	// after the later of "now" (the global virtual clock) and the tenant's
	// previous waiter, so an idle tenant re-enters at the current front
	// instead of burning credit it never used.
	start := p.vtime
	if tq.lastFinish > start {
		start = tq.lastFinish
	}
	w := &waiter{ready: make(chan struct{}), finish: start + 1/tq.weight}
	tq.lastFinish = w.finish
	tq.waiters = append(tq.waiters, w)
	p.queued++
	p.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		select {
		case <-w.ready:
			// The grant raced the cancellation: give the slot back.
			p.mu.Unlock()
			p.Release()
		default:
			p.removeLocked(tq, w)
			p.mu.Unlock()
		}
		return ctx.Err()
	}
}

// Release returns a slot claimed by Acquire and grants it to the fairest
// waiter, if any.
func (p *FairPool) Release() {
	p.mu.Lock()
	p.inFlight--
	p.grantLocked()
	p.mu.Unlock()
}

// queueFor returns (creating on first use) tenant's queue.
func (p *FairPool) queueFor(tenant string) *tenantQueue {
	tq, ok := p.tenants[tenant]
	if !ok {
		w := p.weights[tenant]
		if w <= 0 {
			w = 1
		}
		tq = &tenantQueue{weight: w}
		p.tenants[tenant] = tq
	}
	return tq
}

// grantLocked hands a free slot to the queued waiter with the smallest
// virtual finish tag (ties broken on tenant name, then FIFO within a
// tenant — a total order, so grant sequences are deterministic for a
// deterministic arrival order).
func (p *FairPool) grantLocked() {
	if p.inFlight >= p.workers || p.queued == 0 {
		return
	}
	names := make([]string, 0, len(p.tenants))
	for name, tq := range p.tenants {
		if len(tq.waiters) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	best := ""
	for _, name := range names {
		head := p.tenants[name].waiters[0]
		if best == "" || head.finish < p.tenants[best].waiters[0].finish {
			best = name
		}
	}
	tq := p.tenants[best]
	w := tq.waiters[0]
	tq.waiters = tq.waiters[1:]
	p.queued--
	if w.finish > p.vtime {
		p.vtime = w.finish
	}
	p.inFlight++
	close(w.ready)
}

// removeLocked drops a cancelled waiter from the queue it was placed in.
func (p *FairPool) removeLocked(tq *tenantQueue, w *waiter) {
	for i, cand := range tq.waiters {
		if cand == w {
			tq.waiters = append(tq.waiters[:i], tq.waiters[i+1:]...)
			p.queued--
			return
		}
	}
}

// QueueDepthOf returns tenant's current waiter count.
func (p *FairPool) QueueDepthOf(tenant string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if tq, ok := p.tenants[tenant]; ok {
		return len(tq.waiters)
	}
	return 0
}

// PoolStats is a point-in-time snapshot for the metrics endpoint;
// QueueDepth is the per-tenant bound.
type PoolStats struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queueDepth"`
	InFlight   int   `json:"inFlight"`
	Queued     int   `json:"queued"`
	Rejected   int64 `json:"rejected"`
}

// Stats snapshots the pool.
func (p *FairPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Workers:    p.workers,
		QueueDepth: p.depth,
		InFlight:   p.inFlight,
		Queued:     p.queued,
		Rejected:   p.rejected.Load(),
	}
}
