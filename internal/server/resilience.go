package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"kodan"
)

// ErrBreakerOpen reports that the circuit breaker is rejecting expensive
// work because recent attempts kept failing. Clients get 503 with a
// Retry-After covering the breaker's cooldown.
var ErrBreakerOpen = errors.New("server: circuit breaker open")

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a mutex-guarded circuit breaker over the transform path.
// Consecutive failures at or above the threshold open it; after the
// cooldown one probe request is admitted (half-open), and its outcome
// either closes the breaker or re-opens it for another cooldown.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	state    breakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a closed breaker that opens after threshold
// consecutive failures and stays open for cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Cooldown returns the configured cooldown.
func (b *Breaker) Cooldown() time.Duration { return b.cooldown }

// Allow reports whether a request may proceed. In the open state it flips
// to half-open once the cooldown has elapsed and admits exactly one probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record feeds an attempt's outcome back. Returns true when this record
// tripped the breaker closed→open (so the caller can count trips once).
func (b *Breaker) Record(success bool) (tripped, recovered bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		recovered = b.state != breakerClosed
		b.state = breakerClosed
		b.failures = 0
		b.probing = false
		return false, recovered
	}
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: back to a full cooldown.
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			return true, false
		}
	}
	return false, false
}

// State returns the current state name (for tests and debugging).
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// resilientTransform wraps the configured transform with the circuit
// breaker. It is pass-through on a healthy pipeline: a transform that
// never fails never accumulates breaker failures, and the
// server.resilience.* counters are created only on breaker events.
func (s *Server) resilientTransform(base TransformFunc) TransformFunc {
	return func(ctx context.Context, sys *kodan.System, appIndex int, quantized bool) (*kodan.Application, error) {
		scope := s.metrics.Registry().Scope("server.resilience")
		if !s.breaker.Allow() {
			scope.Counter("breaker_rejected").Inc()
			return nil, ErrBreakerOpen
		}
		app, err := base(ctx, sys, appIndex, quantized)
		if err == nil {
			if _, recovered := s.breaker.Record(true); recovered {
				scope.Counter("breaker_recovered").Inc()
			}
			return app, nil
		}
		// Cancellation is the caller's doing, not the pipeline's health.
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			if tripped, _ := s.breaker.Record(false); tripped {
				scope.Counter("breaker_tripped").Inc()
				s.logger.Warn("circuit breaker opened",
					"route", "transform", "cooldown", s.breaker.Cooldown().String())
			}
		}
		return nil, err
	}
}
