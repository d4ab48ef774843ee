package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"kodan/internal/xrand"
)

// tenantSpec is one tenant's load and fairness parameters.
type tenantSpec struct {
	// name is the X-Kodan-Tenant value ("" sends no header).
	name string
	// weight is the tenant's fair-share weight (matches the server's
	// TenantWeights); fairness normalizes goodput by it.
	weight float64
	// share is the tenant's fraction of offered load, relative to the sum
	// over tenants.
	share float64
}

// options is one run's shape. The command sets every field; validateFlags
// rejects the values a run cannot use.
type options struct {
	// seed fixes the request stream.
	seed uint64
	// requests is the total request count.
	requests int
	// concurrency is the closed-loop in-flight bound.
	concurrency int
	tenants     []tenantSpec
	// apps and seedPool span the distinct cache keys the stream can touch.
	apps     []int
	seedPool []uint64
}

// request is one element of the generated stream.
type request struct {
	tenant string
	seed   uint64
	app    int
}

// stream generates the deterministic request sequence for o: tenants
// drawn by offered-load share, transform keys drawn from the seed and app
// pools.
func stream(o options) []request {
	rng := xrand.New(o.seed)
	shares := make([]float64, len(o.tenants))
	for i, tn := range o.tenants {
		shares[i] = tn.share
	}
	reqs := make([]request, o.requests)
	for i := range reqs {
		reqs[i] = request{
			tenant: o.tenants[rng.Choice(shares)].name,
			seed:   o.seedPool[rng.Intn(len(o.seedPool))],
			app:    o.apps[rng.Intn(len(o.apps))],
		}
	}
	return reqs
}

// tenantStats is one tenant's outcome counts.
type tenantStats struct {
	Weight    float64 `json:"weight"`
	Requests  int     `json:"requests"`
	Completed int     `json:"completed"`
	Rejected  int     `json:"rejected"`
	Errors    int     `json:"errors"`
}

// report is a run's outcome.
type report struct {
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
	Tenants  map[string]*tenantStats `json:"tenants"`
	// Digests maps each distinct request body to the sha256 of its 200
	// response, for byte-identity comparison across server configs.
	Digests map[string]string `json:"-"`
}

// run walks the stream closed-loop against baseURL — o.concurrency
// workers, each sending its next request when the previous one completes —
// and reports the outcome.
func run(ctx context.Context, baseURL string, o options) (*report, error) {
	reqs := stream(o)
	rep := &report{Requests: len(reqs), Tenants: make(map[string]*tenantStats), Digests: make(map[string]string)}
	for _, tn := range o.tenants {
		rep.Tenants[tn.name] = &tenantStats{Weight: tn.weight}
	}
	var mu sync.Mutex
	var latencies []float64
	// do sends one request and accounts its outcome. A request that cannot
	// be sent counts as an error; the worker goes on to the next.
	do := func(r request) {
		body := fmt.Sprintf(`{"seed":%d,"app":%d}`, r.seed, r.app)
		start := time.Now()
		resp, err := post(ctx, baseURL, r.tenant, body)
		elapsed := time.Since(start)

		mu.Lock()
		defer mu.Unlock()
		ts := rep.Tenants[r.tenant]
		ts.Requests++
		if err != nil {
			rep.Errors++
			ts.Errors++
			return
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
	}

	start := time.Now()
	next := make(chan request)
	var wg sync.WaitGroup
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				do(r)
			}
		}()
	}
feed:
	for _, r := range reqs {
		select {
		case next <- r:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.DurationSec = time.Since(start).Seconds()
	if rep.DurationSec > 0 {
		rep.ThroughputRPS = float64(rep.Completed) / rep.DurationSec
	}
	rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
	sort.Float64s(latencies)
	rep.P50Ms = percentile(latencies, 50)
	rep.P99Ms = percentile(latencies, 99)
	rep.Fairness = jain(rep.Tenants)
	return rep, nil
}

// post sends one transform request on tenant's behalf.
func post(ctx context.Context, baseURL, tenant, body string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/transform", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Kodan-Tenant", tenant)
	}
	return http.DefaultClient.Do(req)
}

// jain computes the Jain fairness index over weight-normalized per-tenant
// completions, counting only tenants that offered load.
func jain(tenants map[string]*tenantStats) float64 {
	var xs []float64
	for _, ts := range tenants {
		if ts.Requests == 0 {
			continue
		}
		xs = append(xs, float64(ts.Completed)/ts.Weight)
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

// percentile returns the nearest-rank p-th percentile (1 <= p <= 100) of
// sorted data.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(p*len(sorted)+99)/100-1]
}

// compareDigests checks that every request both runs completed produced
// byte-identical responses, returning the first divergence.
func compareDigests(a, b *report) error {
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
