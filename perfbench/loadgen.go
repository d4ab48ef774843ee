package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// request is one scheduled request of an open-loop stream.
type request struct {
	// at is the due time as an offset from the stream start.
	at     time.Duration
	method string
	path   string
	body   []byte
	tenant string
	// phase indexes the stream phase (rate) the request belongs to.
	phase int
}

// key identifies a request's content: identical keys must get identical
// response bodies.
func (q request) key() string { return q.method + " " + q.path + " " + string(q.body) }

// outcome is one request's result.
type outcome struct {
	// status is the HTTP status, 0 for a transport error or timeout.
	status int
	// cache is the X-Kodan-Cache response header ("" when absent).
	cache string
	// sum is the SHA-256 of the response body.
	sum [32]byte
	// latency runs from the due time to the end of the response, so a
	// stall also delays every request queued behind it.
	latency time.Duration
	// service runs from the actual send to the end of the response.
	service time.Duration
	// late is how late the generator itself sent the request: the send
	// time minus the later of the due time and the moment a connection
	// became free.
	late time.Duration
}

// openLoop sends reqs at their due times over at most conns connections,
// each driven by one goroutine. A request whose due time passes while
// every connection is busy waits for the next free one; its latency still
// counts from the due time. Returns once every request has completed.
func openLoop(ctx context.Context, client *http.Client, base string, reqs []request, conns int, idPrefix string) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				free := time.Now()
				due := start.Add(reqs[i].at)
				if d := time.Until(due); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				out[i] = send(ctx, client, base, reqs[i], idPrefix, i, due, free)
			}
		}()
	}
	wg.Wait()
	return out
}

// send issues one request and times it.
func send(ctx context.Context, client *http.Client, base string, q request, idPrefix string, i int, due, free time.Time) outcome {
	sent := time.Now()
	ready := due
	if free.After(due) {
		ready = free
	}
	o := outcome{late: sent.Sub(ready)}
	req, err := http.NewRequestWithContext(ctx, q.method, base+q.path, bytes.NewReader(q.body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Kodan-Tenant", q.tenant)
		req.Header.Set("X-Request-ID", idPrefix+strconv.Itoa(i))
		var resp *http.Response
		if resp, err = client.Do(req); err == nil {
			h := sha256.New()
			_, err = io.Copy(h, resp.Body)
			resp.Body.Close()
			if err == nil {
				o.status = resp.StatusCode
				o.cache = resp.Header.Get("X-Kodan-Cache")
				copy(o.sum[:], h.Sum(nil))
			}
		}
	}
	end := time.Now()
	o.latency = end.Sub(due)
	o.service = end.Sub(sent)
	return o
}

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     30 * time.Second,
			DisableCompression:  true,
		},
	}
}
