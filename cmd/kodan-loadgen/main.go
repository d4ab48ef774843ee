// Command kodan-loadgen drives the serving plane with a deterministic
// seeded multi-tenant request stream and reports throughput, latency
// percentiles, admission rejections, and weighted fairness. By default it
// self-hosts a stub-pipeline server (real serving plane — single-flight
// LRU cache, admission, worker pool — over a synthetic per-transform
// cost), so the serving stack can be load-tested hermetically; -url
// points it at an already-running kodan-server instead.
//
// Usage:
//
//	kodan-loadgen [-requests 200] [-concurrency 8] [-rate 0] [-seed 1]
//	              [-tenants name:weight[:share],...] [-apps 1,2,3] [-seed-pool 1,2]
//	              [-cache-entries 1024] [-workers 4] [-queue 32] [-work 25ms]
//	              [-tenant-rate 0] [-tenant-burst 0]
//	              [-max-error-rate 0.01] [-min-fairness 0.5]
//	              [-compare] [-json] [-url http://host:8080]
//
// -compare runs the same stream a second time against a fresh self-hosted
// stub of the same configuration and verifies the responses are
// byte-identical: cold caches, different interleavings of hits, joins and
// misses, same bytes. The stream is a pure function of -seed, so runs are
// reproducible.
//
// Exit status: 0 on success; 1 when a gate fails (error rate above
// -max-error-rate or fairness below -min-fairness on any run, or -compare
// digests diverging); 2 on usage errors. CI uses this as the serving
// smoke test.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kodan/internal/loadgen"
	"kodan/internal/server"
)

// parseTenants reads "name:weight[:share]" comma-separated specs.
func parseTenants(s string) ([]loadgen.TenantSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []loadgen.TenantSpec
	for _, item := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if parts[0] == "" {
			return nil, fmt.Errorf("tenant spec %q: empty name", item)
		}
		spec := loadgen.TenantSpec{Name: parts[0], Weight: 1, Share: 1}
		if len(parts) > 3 {
			return nil, fmt.Errorf("tenant spec %q: want name:weight[:share]", item)
		}
		if len(parts) >= 2 {
			w, err := strconv.ParseFloat(parts[1], 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("tenant spec %q: bad weight", item)
			}
			spec.Weight = w
			spec.Share = w // offered load tracks weight unless overridden
		}
		if len(parts) == 3 {
			sh, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || sh <= 0 {
				return nil, fmt.Errorf("tenant spec %q: bad share", item)
			}
			spec.Share = sh
		}
		out = append(out, spec)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		n, err := strconv.Atoi(item)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", item)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseUints(s string) ([]uint64, error) {
	var out []uint64
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		n, err := strconv.ParseUint(item, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", item)
		}
		out = append(out, n)
	}
	return out, nil
}

// stubServer boots a self-hosted stub-pipeline server on a loopback port
// and returns its base URL plus a shutdown func.
func stubServer(cfg server.Config) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	s := server.New(cfg)
	go s.Serve(ln) //nolint:errcheck // shutdown path below owns the error
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.Shutdown(ctx) //nolint:errcheck // best-effort drain
		cancel()
		s.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// render prints one run's report as a human-readable block.
func render(label string, rep *loadgen.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", label)
	fmt.Fprintf(&b, "  requests   %d (completed %d, rejected %d, errors %d)\n",
		rep.Requests, rep.Completed, rep.Rejected, rep.Errors)
	fmt.Fprintf(&b, "  throughput %.1f req/s over %.2fs\n", rep.ThroughputRPS, rep.DurationSec)
	fmt.Fprintf(&b, "  latency    p50 %.1fms  p99 %.1fms\n", rep.P50Ms, rep.P99Ms)
	fmt.Fprintf(&b, "  fairness   %.3f (Jain, weight-normalized)\n", rep.Fairness)
	names := make([]string, 0, len(rep.Tenants))
	for name := range rep.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := rep.Tenants[name]
		if ts.Requests == 0 {
			continue
		}
		display := name
		if display == "" {
			display = "(anon)"
		}
		fmt.Fprintf(&b, "  tenant %-12s w=%.1f  sent %d  ok %d  429 %d  err %d\n",
			display, ts.Weight, ts.Requests, ts.Completed, ts.Rejected, ts.Errors)
	}
	return b.String()
}

// gates returns the failed acceptance gates for a report.
func gates(rep *loadgen.Report, maxErrorRate, minFairness float64) []string {
	var failed []string
	if rep.ErrorRate > maxErrorRate {
		failed = append(failed, fmt.Sprintf("error rate %.4f above gate %.4f", rep.ErrorRate, maxErrorRate))
	}
	if rep.Fairness < minFairness {
		failed = append(failed, fmt.Sprintf("fairness %.3f below gate %.3f", rep.Fairness, minFairness))
	}
	if rep.Completed == 0 {
		failed = append(failed, "no requests completed")
	}
	return failed
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("kodan-loadgen: ")

	requests := flag.Int("requests", 200, "total requests in the stream")
	concurrency := flag.Int("concurrency", 8, "closed-loop in-flight bound")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	seed := flag.Uint64("seed", 1, "stream seed (fixes tenants/keys/arrivals)")
	tenantsFlag := flag.String("tenants", "", "tenant mix as name:weight[:share],... (empty = one anonymous tenant)")
	appsFlag := flag.String("apps", "1,2,3", "application-index pool")
	seedPoolFlag := flag.String("seed-pool", "1,2", "transform-seed pool (cache keys = seeds x apps)")
	urlFlag := flag.String("url", "", "target an external server instead of self-hosting the stub")

	cacheEntries := flag.Int("cache-entries", 1024, "stub server: completed cache entries bound (-1 = unbounded)")
	workers := flag.Int("workers", 4, "stub server: transform workers")
	queue := flag.Int("queue", 32, "stub server: per-tenant wait-queue depth")
	work := flag.Duration("work", 25*time.Millisecond, "stub server: synthetic cost of one transform")
	tenantRate := flag.Float64("tenant-rate", 0, "stub server: per-tenant admission rate in req/s (0 = off)")
	tenantBurst := flag.Float64("tenant-burst", 0, "stub server: per-tenant admission burst (0 = 2x rate)")

	maxErrorRate := flag.Float64("max-error-rate", 0.01, "gate: fail when error rate exceeds this")
	minFairness := flag.Float64("min-fairness", 0.5, "gate: fail when Jain fairness falls below this")
	compare := flag.Bool("compare", false, "rerun the stream against a second fresh stub server and require byte-identical responses")
	jsonOut := flag.Bool("json", false, "emit the report(s) as JSON on stdout")
	flag.Parse()

	tenants, err := parseTenants(*tenantsFlag)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	apps, err := parseInts(*appsFlag)
	if err != nil || len(apps) == 0 {
		log.Printf("-apps: %v", err)
		os.Exit(2)
	}
	seedPool, err := parseUints(*seedPoolFlag)
	if err != nil || len(seedPool) == 0 {
		log.Printf("-seed-pool: %v", err)
		os.Exit(2)
	}
	if *urlFlag != "" && *compare {
		log.Println("-compare needs the self-hosted stub (it reruns the stream on a fresh server); drop -url")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := loadgen.Options{
		Seed:        *seed,
		Requests:    *requests,
		Concurrency: *concurrency,
		RatePerSec:  *rate,
		Tenants:     tenants,
		Apps:        apps,
		SeedPool:    seedPool,
	}

	// serverConfig assembles the stub server from the flags.
	serverConfig := func() (server.Config, error) {
		cfg, err := loadgen.StubConfig(*work, apps)
		if err != nil {
			return cfg, err
		}
		cfg.Workers = *workers
		cfg.QueueDepth = *queue
		cfg.CacheEntries = *cacheEntries
		cfg.TenantRate = *tenantRate
		cfg.TenantBurst = *tenantBurst
		if len(tenants) > 0 {
			cfg.TenantWeights = make(map[string]float64, len(tenants))
			for _, tn := range tenants {
				cfg.TenantWeights[tn.Name] = tn.Weight
			}
		}
		return cfg, nil
	}

	// runAgainst runs the stream against url (external or stub).
	runAgainst := func(url string) (*loadgen.Report, error) {
		o := opts
		o.BaseURL = url
		return loadgen.Run(ctx, o)
	}
	runStub := func() (*loadgen.Report, error) {
		cfg, err := serverConfig()
		if err != nil {
			return nil, err
		}
		url, shutdown, err := stubServer(cfg)
		if err != nil {
			return nil, err
		}
		defer shutdown()
		return runAgainst(url)
	}

	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			log.Println("interrupted")
			os.Exit(1)
		}
		log.Println(err)
		os.Exit(1)
	}

	var first, rerun *loadgen.Report
	if *urlFlag != "" {
		first, err = runAgainst(*urlFlag)
	} else {
		first, err = runStub()
	}
	if err != nil {
		fail(err)
	}
	if *compare {
		if rerun, err = runStub(); err != nil {
			fail(err)
		}
	}

	failedGates := gates(first, *maxErrorRate, *minFairness)
	var digestErr error
	if rerun != nil {
		for _, g := range gates(rerun, *maxErrorRate, *minFairness) {
			failedGates = append(failedGates, "rerun: "+g)
		}
		if digestErr = loadgen.CompareDigests(first, rerun); digestErr != nil {
			failedGates = append(failedGates, digestErr.Error())
		}
	}

	if *jsonOut {
		doc := map[string]interface{}{"report": first, "gatesFailed": failedGates}
		if rerun != nil {
			doc["rerun"] = rerun
			doc["digestsIdentical"] = digestErr == nil
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fail(err)
		}
	} else {
		fmt.Print(render("run", first))
		if rerun != nil {
			fmt.Print(render("rerun (fresh server)", rerun))
			fmt.Printf("responses byte-identical across servers: %t\n", digestErr == nil)
		}
	}

	if len(failedGates) > 0 {
		for _, g := range failedGates {
			log.Printf("GATE FAILED: %s", g)
		}
		os.Exit(1)
	}
}
