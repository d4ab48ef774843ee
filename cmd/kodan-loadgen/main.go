// Command kodan-loadgen drives the serving plane with a deterministic
// seeded multi-tenant request stream, closed loop (a fixed number of
// in-flight requests, the next sent when one completes), and reports
// throughput, latency percentiles, admission rejections, and weighted
// fairness. By default it self-hosts a stub-pipeline server (real serving
// plane — single-flight LRU cache, admission, worker pool — over a
// synthetic per-transform cost), so the serving stack can be load-tested
// hermetically; -url points it at an already-running kodan-server
// instead. The open-loop serving measurement is perfbench's serve
// workload, which times each request from its due time.
//
// Usage:
//
//	kodan-loadgen [-requests 200] [-concurrency 8] [-seed 1]
//	              [-tenants name:weight[:share],...] [-apps 1,2,3] [-seed-pool 1,2]
//	              [-cache-entries 1024] [-workers 4] [-queue 32] [-work 25ms]
//	              [-tenant-rate 0] [-tenant-burst 0]
//	              [-max-error-rate 0.01] [-min-fairness 0.5]
//	              [-compare] [-json] [-url http://host:8080]
//
// The request stream is a pure function of -seed, -requests, -tenants,
// -apps and -seed-pool: two runs issue the same requests in the same
// order, so response digests are comparable across servers. -compare
// runs the stream a second time against a fresh self-hosted stub of the
// same configuration and verifies the responses are byte-identical: cold
// caches, different interleavings of hits, joins and misses, same bytes.
// Timing-derived statistics (throughput, percentiles) are measured and
// vary run to run.
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

	"kodan/internal/server"
)

// parseTenants reads "name:weight[:share]" comma-separated specs; an
// empty list is one anonymous tenant.
func parseTenants(s string) ([]tenantSpec, error) {
	if strings.TrimSpace(s) == "" {
		return []tenantSpec{{name: "", weight: 1, share: 1}}, nil
	}
	var out []tenantSpec
	for _, item := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if parts[0] == "" {
			return nil, fmt.Errorf("tenant spec %q: empty name", item)
		}
		spec := tenantSpec{name: parts[0], weight: 1, share: 1}
		if len(parts) > 3 {
			return nil, fmt.Errorf("tenant spec %q: want name:weight[:share]", item)
		}
		if len(parts) >= 2 {
			w, err := strconv.ParseFloat(parts[1], 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("tenant spec %q: bad weight", item)
			}
			spec.weight = w
			spec.share = w // offered load tracks weight unless overridden
		}
		if len(parts) == 3 {
			sh, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || sh <= 0 {
				return nil, fmt.Errorf("tenant spec %q: bad share", item)
			}
			spec.share = sh
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

// validateFlags rejects a run that cannot start or could never finish —
// no requests, no workers to send them, an empty key pool — and -compare
// against an external server, before any server is built.
func validateFlags(o options, url string, compare bool) error {
	if o.requests < 1 {
		return fmt.Errorf("-requests must be >= 1, got %d", o.requests)
	}
	if o.concurrency < 1 {
		return fmt.Errorf("-concurrency must be >= 1, got %d", o.concurrency)
	}
	if len(o.apps) == 0 {
		return fmt.Errorf("-apps is empty")
	}
	if len(o.seedPool) == 0 {
		return fmt.Errorf("-seed-pool is empty")
	}
	if url != "" && compare {
		return fmt.Errorf("-compare needs the self-hosted stub (it reruns the stream on a fresh server); drop -url")
	}
	return nil
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
func render(label string, rep *report) string {
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
func gates(rep *report, maxErrorRate, minFairness float64) []string {
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

	var opts options
	flag.IntVar(&opts.requests, "requests", 200, "total requests in the stream")
	flag.IntVar(&opts.concurrency, "concurrency", 8, "closed-loop in-flight bound")
	flag.Uint64Var(&opts.seed, "seed", 1, "stream seed (fixes tenants and keys)")
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

	usage := func(err error) {
		log.Println(err)
		os.Exit(2)
	}
	var err error
	if opts.tenants, err = parseTenants(*tenantsFlag); err != nil {
		usage(err)
	}
	if opts.apps, err = parseInts(*appsFlag); err != nil {
		usage(fmt.Errorf("-apps: %w", err))
	}
	if opts.seedPool, err = parseUints(*seedPoolFlag); err != nil {
		usage(fmt.Errorf("-seed-pool: %w", err))
	}
	if err := validateFlags(opts, *urlFlag, *compare); err != nil {
		usage(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// runStub runs the stream against a fresh stub server built from the
	// flags.
	runStub := func() (*report, error) {
		cfg, err := stubConfig(*work, opts.apps)
		if err != nil {
			return nil, err
		}
		cfg.Workers = *workers
		cfg.QueueDepth = *queue
		cfg.CacheEntries = *cacheEntries
		cfg.TenantRate = *tenantRate
		cfg.TenantBurst = *tenantBurst
		cfg.TenantWeights = make(map[string]float64, len(opts.tenants))
		for _, tn := range opts.tenants {
			cfg.TenantWeights[tn.name] = tn.weight
		}
		url, shutdown, err := stubServer(cfg)
		if err != nil {
			return nil, err
		}
		defer shutdown()
		return run(ctx, url, opts)
	}

	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			err = errors.New("interrupted")
		}
		log.Println(err)
		os.Exit(1)
	}

	var first, rerun *report
	if *urlFlag != "" {
		first, err = run(ctx, *urlFlag, opts)
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
		if digestErr = compareDigests(first, rerun); digestErr != nil {
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
