package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"kodan"
	"kodan/internal/server"
	"kodan/internal/telemetry"
	"kodan/internal/xrand"
)

// Serve workload sizing.
const (
	// serveSysSeed is the server's transformation seed: the deployed
	// artifacts are fixed, the seed drives the request stream.
	serveSysSeed = 2023
	// nominalRate and peakRate are the open-loop arrival rates (requests
	// per second) of the stream's warm-up and nominal phases and of its
	// peak phase; the peak sits near the knee of the two-CPU host.
	nominalRate = 250
	peakRate    = 550
	// sloLimit is the latency limit of serve.slo_frac at the peak rate.
	sloLimit = 50 * time.Millisecond
	// goldenRequests is how many leading requests the default-seed digest
	// covers (any run sends at least this many).
	goldenRequests = 256
)

// serveTransformConfig is the server's reduced transformation sizing.
func serveTransformConfig(seed uint64) kodan.TransformConfig {
	cfg := kodan.DefaultTransformConfig(seed)
	cfg.Frames = 24
	cfg.TileRes = 12
	cfg.Tilings = []kodan.Tiling{{PerSide: 3}, {PerSide: 11}}
	return cfg
}

// Key pools. Plan keys are app × target × variant (Zipf-ranked in a
// seeded order) times a deployment or hybrid knob (Zipf over the pool).
var (
	serveTargets = []string{"orin", "i7", "1070ti"}
	// deploymentKnobs are explicit (deadline ms, capacity) pairs; the first
	// entry leaves both to the server's reference mission.
	deploymentKnobs = [][2]float64{{0, 0}, {24000, 0.2}, {12000, 0.2}, {36000, 0.2}, {24000, 0.1}, {48000, 0.2}, {12000, 0.1}, {36000, 0.1}}
	// hybridKnobs are (ground cost, buffer frames) pairs; the first entry
	// keeps the server defaults.
	hybridKnobs = [][2]float64{{-1, -1}, {0.25, 64}, {1, 64}, {0, 64}, {0.5, 16}, {0.25, 16}, {1, 16}, {0, 16}}
	// simulateSpans are the (days, sats) missions /v1/simulate asks for;
	// set-up warms each.
	simulateSpans = [][2]int{{1, 1}, {1, 2}, {2, 1}}
	simulateModes = []string{"kodan", "bentpipe", "direct"}
	tenants       = []string{"ops", "science"}
)

// serveInstance is one running server with its loopback client.
type serveInstance struct {
	srv    *server.Server
	done   chan error
	base   string
	client *http.Client
	tracer *telemetry.Tracer
}

// startServe starts a server on a loopback listener and prebuilds every
// app transform (float and int8) and reference mission the stream uses.
func startServe(ctx context.Context, traced bool) (*serveInstance, error) {
	var tr *telemetry.Tracer
	if traced {
		tr = telemetry.NewTracer(0)
	}
	srv := server.New(server.Config{
		Seed:            serveSysSeed,
		TransformConfig: serveTransformConfig,
		TenantWeights:   map[string]float64{"ops": 3, "science": 1},
		Tracer:          tr,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveInstance{
		srv: srv, done: make(chan error, 1), base: "http://" + l.Addr().String(),
		client: newClient(workers, 30*time.Second), tracer: tr,
	}
	go func() { s.done <- srv.Serve(l) }()

	var warm []request
	for app := 1; app <= len(kodan.Applications()); app++ {
		for _, q := range []bool{false, true} {
			warm = append(warm, jsonRequest("/v1/transform", "ops", map[string]any{"app": app, "quantized": q}))
		}
	}
	for _, sp := range simulateSpans {
		warm = append(warm, jsonRequest("/v1/simulate", "ops", map[string]any{"app": 1, "days": sp[0], "sats": sp[1], "mode": "bentpipe"}))
	}
	for i, o := range openLoop(ctx, s.client, s.base, warm, workers, "warm") {
		if o.status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("prebuild %s: status %d", warm[i].key(), o.status)
		}
	}
	return s, nil
}

// close shuts the server down and waits for Serve to return.
func (s *serveInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) //nolint:errcheck // a forced close still ends Serve
	<-s.done
	s.client.CloseIdleConnections()
}

// metrics reads the server's /metrics document.
func (s *serveInstance) metrics(ctx context.Context) (server.Snapshot, error) {
	var snap server.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

func jsonRequest(path, tenant string, body map[string]any) request {
	b, _ := json.Marshal(body) // maps of numbers, strings and bools always marshal
	return request{method: http.MethodPost, path: path, body: b, tenant: tenant}
}

// serveStream builds the seeded open-loop stream: Poisson arrivals at each
// phase's rate for its duration, mostly /v1/plan (bundle and hybrid) with
// some /v1/simulate and /v1/transform, keys Zipf-skewed so hits dominate
// while plan misses keep recurring.
func serveStream(seed uint64, phases []streamPhase) []request {
	// Arrival times and request contents come from separate streams, so
	// the request sequence does not depend on the rates or the duration.
	arrivals := xrand.New(seed ^ 0x617272697665)
	rng := xrand.New(seed ^ 0x7365727665)
	type base struct {
		app       int
		target    string
		quantized bool
	}
	var bases []base
	for app := 1; app <= len(kodan.Applications()); app++ {
		for _, tg := range serveTargets {
			for _, q := range []bool{false, true} {
				bases = append(bases, base{app, tg, q})
			}
		}
	}
	rng.Shuffle(len(bases), func(i, j int) { bases[i], bases[j] = bases[j], bases[i] })
	baseW := zipf(len(bases), 1.0)
	knobW := zipf(len(deploymentKnobs), 1.2)
	// bundle, hybrid, simulate, transform. Kodan-mode simulations run the
	// optimizer on every request, so they give the tail a steady share of
	// computed responses next to the recurring plan misses.
	mixW := []float64{0.50, 0.25, 0.20, 0.05}
	tenantW := []float64{0.75, 0.25}
	modeW := []float64{0.75, 0.125, 0.125}

	var reqs []request
	var offset time.Duration
	for ph, sp := range phases {
		for at := time.Duration(0); ; {
			at += time.Duration(-math.Log(1-arrivals.Float64()) / sp.rate * float64(time.Second))
			if at >= sp.dur {
				break
			}
			b := bases[rng.Choice(baseW)]
			body := map[string]any{"app": b.app, "quantized": b.quantized}
			path := "/v1/plan"
			switch rng.Choice(mixW) {
			case 0:
				body["target"] = b.target
				if k := deploymentKnobs[rng.Choice(knobW)]; k[0] > 0 {
					body["deadlineMs"], body["capacityFrac"] = k[0], k[1]
				}
			case 1:
				body["target"] = b.target
				body["mode"] = "hybrid"
				if k := hybridKnobs[rng.Choice(knobW)]; k[0] >= 0 {
					body["groundCost"], body["bufferFrames"] = k[0], k[1]
				}
			case 2:
				path = "/v1/simulate"
				body["target"] = b.target
				sp := simulateSpans[rng.Intn(len(simulateSpans))]
				body["days"], body["sats"] = sp[0], sp[1]
				body["mode"] = simulateModes[rng.Choice(modeW)]
			default:
				path = "/v1/transform"
			}
			q := jsonRequest(path, tenants[rng.Choice(tenantW)], body)
			q.at = offset + at
			q.phase = ph
			reqs = append(reqs, q)
		}
		offset += sp.dur
	}
	return reqs
}

// streamPhase is one constant-rate stretch of the open-loop stream.
type streamPhase struct {
	rate float64 // requests per second
	dur  time.Duration
}

// The stream's phases: a warm-up at the nominal rate whose latencies are
// not reported (it fills the cache with the hottest keys, so the measured
// phases see a steady mix of hits and recurring misses), then the nominal
// and the peak rate.
const (
	phaseWarm = iota
	phaseNominal
	phasePeak
)

// streamPhases splits d into the warm-up (3/20), nominal (11/20) and peak
// (6/20) phases: the nominal phase is the longest, since its p99 is
// bounded.
func streamPhases(d time.Duration) []streamPhase {
	return []streamPhase{{nominalRate, 3 * d / 20}, {nominalRate, 11 * d / 20}, {peakRate, 6 * d / 20}}
}

// zipf returns Zipf weights 1/(k+1)^s for ranks 0..n-1.
func zipf(n int, s float64) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
	}
	return w
}

// streamResult summarizes one stream against one server.
type streamResult struct {
	reqs        []request
	outs        []outcome
	before, aft server.Snapshot
	allocMB, gc float64
	// start is when the stream began.
	start time.Time
}

// runStream sends the stream and reads /metrics around it.
func runStream(ctx context.Context, s *serveInstance, reqs []request, prefix string) (streamResult, error) {
	res := streamResult{reqs: reqs}
	var err error
	if res.before, err = s.metrics(ctx); err != nil {
		return res, err
	}
	mem := startMem()
	res.start = time.Now()
	res.outs = openLoop(ctx, s.client, s.base, reqs, workers, prefix)
	res.allocMB, res.gc = mem.stop()
	res.aft, err = s.metrics(ctx)
	return res, err
}

// phaseLatencies returns the latencies (ms, from due time) of one phase.
func (sr streamResult) phaseLatencies(ph int) []float64 {
	var ms []float64
	for i, o := range sr.outs {
		if sr.reqs[i].phase == ph {
			ms = append(ms, float64(o.latency)/float64(time.Millisecond))
		}
	}
	return ms
}

// sloFrac is the share of a phase's requests answered 200 within sloLimit.
func (sr streamResult) sloFrac(ph int) float64 {
	n, ok := 0, 0
	for i, o := range sr.outs {
		if sr.reqs[i].phase != ph {
			continue
		}
		n++
		if o.status == http.StatusOK && o.latency <= sloLimit {
			ok++
		}
	}
	return float64(ok) / float64(n)
}

// check runs the serve output checks on one stream: byte-identical bodies
// per key (hit or miss), request accounting against the server's own
// counters, and the default-seed digest.
func (sr streamResult) check(r *run) {
	bodies := map[string][32]byte{}
	var ok, throttled, other int
	for i, o := range sr.outs {
		switch {
		case o.status == http.StatusOK:
			ok++
			k := sr.reqs[i].key()
			if prev, seen := bodies[k]; seen {
				r.checks.expect("serve.identical_bodies", prev == o.sum,
					"request %d (%s, cache %s) body differs from an earlier identical request", i, k, o.cache)
			} else {
				bodies[k] = o.sum
			}
		case o.status == http.StatusTooManyRequests:
			throttled++
		default:
			other++
		}
	}
	sent := len(sr.outs)
	r.checks.attempted += sent
	r.checks.failed += throttled + other
	r.checks.expect("serve.requests_accounted", sent == ok+throttled+other,
		"sent %d != 200s %d + 429s %d + other %d", sent, ok, throttled, other)
	var srvTotal, srvOK, srvThrottled int64
	for _, route := range []string{"/v1/plan", "/v1/simulate", "/v1/transform"} {
		a, b := sr.aft.Requests[route], sr.before.Requests[route]
		srvTotal += a.Count - b.Count
		srvOK += a.ByStatus["200"] - b.ByStatus["200"]
		srvThrottled += a.ByStatus["429"] - b.ByStatus["429"]
	}
	r.checks.expect("serve.server_counts_match", srvTotal == int64(sent) && srvOK == int64(ok) && srvThrottled == int64(throttled),
		"server counted %d requests (%d ok, %d throttled), client %d (%d ok, %d throttled)",
		srvTotal, srvOK, srvThrottled, sent, ok, throttled)

	d := newDigest()
	for i := 0; i < goldenRequests && i < sent; i++ {
		d.add("%s %d %x", sr.reqs[i].key(), sr.outs[i].status, sr.outs[i].sum)
	}
	r.checks.expect("serve.golden_requests_sent", sent >= goldenRequests, "only %d requests sent", sent)
	checkDigests(r, "serve.response_digest", []string{d.sum()}, goldenServe)
}

// runServe is the serve workload: an open-loop Poisson stream at the
// nominal then the peak rate against an in-process server running the
// real pipeline, over at most two client connections.
func runServe(ctx context.Context, r *run) error {
	// Set up three times for the set-up median; an untraced run keeps the
	// last server, a traced run the last two (one of them traced).
	var insts []*serveInstance
	var durs []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		s, err := startServe(ctx, r.traced && i == 2)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		durs = append(durs, time.Since(start).Seconds())
		insts = append(insts, s)
	}
	keep := 1
	if r.traced {
		keep = 2
	}
	for _, s := range insts[:len(insts)-keep] {
		s.close()
	}
	insts = insts[len(insts)-keep:]
	defer func() {
		for _, s := range insts {
			s.close()
		}
	}()

	reqs := serveStream(r.seed, streamPhases(r.seconds/time.Duration(keep)))
	plain, err := runStream(ctx, insts[0], reqs, "u")
	if err != nil {
		return err
	}
	plain.check(r)
	nominal := plain.phaseLatencies(phaseNominal)
	peak := plain.phaseLatencies(phasePeak)
	r.rec.Samples["nominal_requests"] = len(nominal)
	r.rec.Samples["peak_requests"] = len(peak)
	late := make([]float64, len(plain.outs))
	for i, o := range plain.outs {
		late[i] = float64(o.late) / float64(time.Millisecond)
	}
	r.rec.LateMs = &lateness{P50: median(late), P99: quantile(late, 0.99), Max: maxOf(late), N: len(late)}
	peakP99, slo := quantile(peak, 0.99), plain.sloFrac(phasePeak)

	if !r.traced {
		r.set("setup_s", "s", median(durs))
		r.set("latency_ms", "ms", median(nominal))
		r.set("tail_latency_ms", "ms", quantile(nominal, 0.9))
		r.rec.Extra = map[string]float64{
			"serve.p99_ms": quantile(nominal, 0.99), "serve.peak_p99_ms": peakP99, "serve.slo_frac": slo,
		}
		return nil
	}

	traced, err := runStream(ctx, insts[1], reqs, "t")
	if err != nil {
		return err
	}
	traced.check(r)
	r.set("failed_frac", "frac", float64(r.checks.failed)/float64(r.checks.attempted))
	r.set("serve.p99_ms", "ms", quantile(nominal, 0.99))
	r.set("serve.peak_p99_ms", "ms", peakP99)
	r.set("serve.slo_frac", "frac", slo)
	r.set("loadgen.late_ms", "ms", r.rec.LateMs.P99)
	r.set("go.alloc_mb", "MB", plain.allocMB)
	r.set("go.gc_cycles", "count", plain.gc)
	r.set("telemetry.overhead_frac", "frac", median(traced.phaseLatencies(phaseNominal))/median(nominal)-1)
	if err := serveLayers(r, traced, insts[1].tracer); err != nil {
		return err
	}
	return nil
}

// serveLayers reports the serving layers of the traced stream: client-side
// hit/miss latency by the X-Kodan-Cache header, the server's own counters
// from /metrics, and the server-side self time of the requests that ran
// the selection-logic optimizer or the hybrid planner. Set-up spans (the
// prebuilt transforms) are excluded: only the stream is attributed.
func serveLayers(r *run, sr streamResult, tr *telemetry.Tracer) error {
	var hits, misses []float64
	optimizer := map[string]string{} // request ID -> layer its misses ran
	for i, o := range sr.outs {
		ms := float64(o.service) / float64(time.Millisecond)
		switch o.cache {
		case "hit":
			hits = append(hits, ms)
		case "miss", "join":
			misses = append(misses, ms)
		}
		q := sr.reqs[i]
		id := "t" + strconv.Itoa(i)
		switch {
		case q.path == "/v1/plan" && o.cache == "miss" && strings.Contains(string(q.body), `"hybrid"`):
			optimizer[id] = "planner.plan"
		case q.path == "/v1/plan" && o.cache == "miss":
			optimizer[id] = "policy.optimize"
		case q.path == "/v1/simulate" && strings.Contains(string(q.body), `"kodan"`):
			optimizer[id] = "policy.optimize"
		}
	}
	r.rec.Samples["hits"] = len(hits)
	r.rec.Samples["misses"] = len(misses)
	if n := len(hits) + len(misses); n > 0 {
		r.set("server.hit_ratio", "frac", float64(len(hits))/float64(n))
	}
	r.set("server.hit_p50_ms", "ms", median(hits))
	r.set("server.miss_p50_ms", "ms", median(misses))

	a, b := sr.aft, sr.before
	waitS := a.Telemetry.Histograms["server.pool_wait_seconds"].Sum - b.Telemetry.Histograms["server.pool_wait_seconds"].Sum
	r.set("server.pool_wait_ms", "ms", 1000*waitS)
	r.set("server.transforms", "count", float64(a.Transforms.Started-b.Transforms.Started))
	r.set("shardcache.evictions", "count", float64(a.Cache.Evictions-b.Cache.Evictions))
	var rejected int64
	for name, v := range a.Telemetry.Counters {
		if strings.HasPrefix(name, "server.tenant.") && strings.HasSuffix(name, ".rejected") {
			rejected += v - b.Telemetry.Counters[name]
		}
	}
	r.set("admission.rejected", "count", float64(rejected))
	r.set("nn.models_trained", "count", float64(a.Telemetry.Counters["nn.fits"]-b.Telemetry.Counters["nn.fits"]))

	return serveSpans(r, tr, optimizer, sr.start)
}

// serveSpans attributes the server's spans to layers. The server has no
// span of its own around the optimizer or the planner, so a plan miss's
// request self time (what the request spent outside pool waits,
// transforms and simulations) is charged to the layer that miss ran.
func serveSpans(r *run, tr *telemetry.Tracer, optimizer map[string]string, since time.Time) error {
	t := &tracing{tr: tr, since: since}
	a, err := t.attribute()
	if err != nil {
		return err
	}
	setLayerTimes(r, a, 1)
	self := map[string]float64{}
	calls := 0
	for _, sp := range a.Spans {
		if layer, ok := optimizer[sp.Attrs[telemetry.RequestIDAttr]]; ok && strings.HasPrefix(sp.Name, "http.") {
			self[layer] += sp.Self().Seconds()
			calls++
		}
	}
	r.set("policy.optimize_s", "s", self["policy.optimize"])
	r.set("planner.plan_s", "s", self["planner.plan"])
	r.set("policy.optimize_calls", "count", float64(calls))
	return t.writeTrace(r)
}
