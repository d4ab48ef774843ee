// Package loadgen is the deterministic multi-tenant load generator for
// the serving plane. It drives a kodan server's /v1/transform endpoint
// with a seeded request stream — tenants drawn by offered-load share,
// transform keys drawn from a seed/app pool — in either a closed loop
// (fixed concurrency, next request on completion) or an open loop (fixed
// arrival rate, no back-off), and reports throughput, latency
// percentiles, per-tenant goodput, admission rejections, and a Jain
// fairness index over weight-normalized goodput.
//
// The request STREAM is a pure function of the seed: two runs with the
// same options issue the same requests in the same order, so response
// digests are comparable across servers (kodan-loadgen -compare uses this
// to prove two fresh servers answer the stream byte-identically). Timing-
// derived statistics (throughput, percentiles) are measured, not
// synthesized, and vary run to run.
package loadgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"kodan/internal/xrand"
)

// TenantSpec is one tenant's load and fairness parameters.
type TenantSpec struct {
	// Name is the X-Kodan-Tenant value.
	Name string `json:"name"`
	// Weight is the tenant's fair-share weight (matches the server's
	// TenantWeights); fairness normalizes goodput by it. Default 1.
	Weight float64 `json:"weight"`
	// Share is the tenant's fraction of offered load (relative to the sum
	// over tenants). Default 1.
	Share float64 `json:"share"`
}

// Options configures a run.
type Options struct {
	// Seed fixes the request stream.
	Seed uint64
	// Requests is the total request count (default 64).
	Requests int
	// Concurrency is the closed-loop in-flight bound (default 8). Ignored
	// when RatePerSec is set.
	Concurrency int
	// RatePerSec switches to an open loop: requests are dispatched at this
	// arrival rate regardless of completions (exponential interarrivals
	// from the seeded stream). 0 keeps the closed loop.
	RatePerSec float64
	// Tenants is the tenant mix (default: one anonymous tenant).
	Tenants []TenantSpec
	// Apps is the application-index pool (default {1, 2, 3}).
	Apps []int
	// SeedPool is the transform-seed pool; together with Apps it spans the
	// distinct cache keys the stream can touch (default {1}).
	SeedPool []uint64
	// BaseURL is the server under test (e.g. an httptest server's URL).
	BaseURL string
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Requests <= 0 {
		o.Requests = 64
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if len(o.Tenants) == 0 {
		o.Tenants = []TenantSpec{{Name: "", Weight: 1, Share: 1}}
	}
	for i := range o.Tenants {
		if o.Tenants[i].Weight <= 0 {
			o.Tenants[i].Weight = 1
		}
		if o.Tenants[i].Share <= 0 {
			o.Tenants[i].Share = 1
		}
	}
	if len(o.Apps) == 0 {
		o.Apps = []int{1, 2, 3}
	}
	if len(o.SeedPool) == 0 {
		o.SeedPool = []uint64{1}
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o
}

// Request is one element of the generated stream.
type Request struct {
	Tenant string
	Seed   uint64
	App    int
	// WaitBefore is the open-loop interarrival before dispatching this
	// request (zero in closed-loop runs).
	WaitBefore time.Duration
}

// Stream generates the deterministic request sequence for opts.
func Stream(opts Options) []Request {
	opts = opts.withDefaults()
	rng := xrand.New(opts.Seed)
	shares := make([]float64, len(opts.Tenants))
	for i, tn := range opts.Tenants {
		shares[i] = tn.Share
	}
	reqs := make([]Request, opts.Requests)
	for i := range reqs {
		reqs[i] = Request{
			Tenant: opts.Tenants[rng.Choice(shares)].Name,
			Seed:   opts.SeedPool[rng.Intn(len(opts.SeedPool))],
			App:    opts.Apps[rng.Intn(len(opts.Apps))],
		}
		if opts.RatePerSec > 0 {
			// Exponential interarrival with mean 1/rate, from the same
			// seeded stream so open-loop schedules replay exactly.
			u := 1 - rng.Float64() // in (0, 1]: log is finite
			gap := -math.Log(u) / opts.RatePerSec
			reqs[i].WaitBefore = time.Duration(gap * float64(time.Second))
		}
	}
	return reqs
}

// TenantStats is one tenant's outcome counts.
type TenantStats struct {
	Weight    float64 `json:"weight"`
	Requests  int     `json:"requests"`
	Completed int     `json:"completed"`
	Rejected  int     `json:"rejected"`
	Errors    int     `json:"errors"`
}

// Report is a run's outcome.
type Report struct {
	Requests      int     `json:"requests"`
	Completed     int     `json:"completed"`
	Rejected      int     `json:"rejected"` // 429s: admission or saturation
	Errors        int     `json:"errors"`   // 5xx and transport failures
	DurationSec   float64 `json:"durationSec"`
	ThroughputRPS float64 `json:"throughputRPS"` // completed / duration
	P50Ms         float64 `json:"p50Ms"`
	P99Ms         float64 `json:"p99Ms"`
	// ErrorRate is errors / requests (429 rejections are backpressure,
	// not errors, and are excluded).
	ErrorRate float64 `json:"errorRate"`
	// Fairness is the Jain index over weight-normalized per-tenant
	// completions: 1.0 = perfectly weighted-fair, 1/n = one tenant took
	// everything.
	Fairness float64                 `json:"fairness"`
	Tenants  map[string]*TenantStats `json:"tenants"`
	// Digests maps each distinct request body to the sha256 of its 200
	// response, for byte-identity comparison across server configs.
	Digests map[string]string `json:"-"`
}

// Run executes the stream against opts.BaseURL and reports the outcome.
func Run(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	stream := Stream(opts)

	rep := &Report{Requests: len(stream), Tenants: make(map[string]*TenantStats), Digests: make(map[string]string)}
	for _, tn := range opts.Tenants {
		rep.Tenants[tn.Name] = &TenantStats{Weight: tn.Weight}
	}
	var mu sync.Mutex
	var latencies []float64
	do := func(r Request) error {
		body := fmt.Sprintf(`{"seed":%d,"app":%d}`, r.Seed, r.App)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, opts.BaseURL+"/v1/transform", strings.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		if r.Tenant != "" {
			req.Header.Set("X-Kodan-Tenant", r.Tenant)
		}
		start := time.Now()
		resp, err := opts.Client.Do(req)
		elapsed := time.Since(start)

		mu.Lock()
		defer mu.Unlock()
		ts := rep.Tenants[r.Tenant]
		ts.Requests++
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			rep.Errors++
			ts.Errors++
			return nil
		}
		data, _ := io.ReadAll(resp.Body) //nolint:errcheck // status drives accounting
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			rep.Completed++
			ts.Completed++
			latencies = append(latencies, float64(elapsed)/float64(time.Millisecond))
			sum := sha256.Sum256(data)
			rep.Digests[body] = hex.EncodeToString(sum[:])
		case resp.StatusCode == http.StatusTooManyRequests:
			rep.Rejected++
			ts.Rejected++
		default:
			rep.Errors++
			ts.Errors++
		}
		return nil
	}

	start := time.Now()
	if opts.RatePerSec > 0 {
		// Open loop: dispatch on the schedule, collect asynchronously.
		var wg sync.WaitGroup
		for _, r := range stream {
			if r.WaitBefore > 0 {
				select {
				case <-time.After(r.WaitBefore):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			wg.Add(1)
			go func(r Request) {
				defer wg.Done()
				do(r) //nolint:errcheck // ctx errors surface via ctx.Err below
			}(r)
		}
		wg.Wait()
	} else {
		// Closed loop: Concurrency workers walk the stream in order.
		next := make(chan Request)
		var wg sync.WaitGroup
		for w := 0; w < opts.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range next {
					if do(r) != nil {
						return
					}
				}
			}()
		}
	feed:
		for _, r := range stream {
			select {
			case next <- r:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.DurationSec = time.Since(start).Seconds()
	if rep.DurationSec > 0 {
		rep.ThroughputRPS = float64(rep.Completed) / rep.DurationSec
	}
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
	}
	sort.Float64s(latencies)
	rep.P50Ms = percentile(latencies, 50)
	rep.P99Ms = percentile(latencies, 99)
	rep.Fairness = jain(rep.Tenants)
	return rep, nil
}

// jain computes the Jain fairness index over weight-normalized per-tenant
// completions, counting only tenants that offered load.
func jain(tenants map[string]*TenantStats) float64 {
	var xs []float64
	for _, ts := range tenants {
		if ts.Requests == 0 {
			continue
		}
		xs = append(xs, float64(ts.Completed)/ts.Weight)
	}
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// percentile returns the nearest-rank p-th percentile of sorted data.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// CompareDigests checks that every request both runs completed produced
// byte-identical responses, returning the first divergence.
func CompareDigests(a, b *Report) error {
	n := 0
	for body, da := range a.Digests {
		if db, ok := b.Digests[body]; ok {
			if da != db {
				return fmt.Errorf("response for %s differs across configurations", body)
			}
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("no overlapping completed requests to compare")
	}
	return nil
}
