// Command perfbench is the repository benchmark. It drives the Kodan
// pipeline through its public calls on one of three workloads and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as the last line of standard output:
//
//	perfbench --workload transform|mission|serve --seed N --seconds S --trace 0|1
//
// Every run checks the program's outputs (digests against committed values
// for the default seed, invariants for any seed) and exits nonzero when a
// check fails. A run record — host fingerprint, seed, sample counts and
// generator lateness — is printed as the line before the result and written
// under --out, next to the traced run's span file (readable by kodan-trace).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed whose output digests are committed in golden.go.
const defaultSeed = 1

// workers bounds the goroutines and client connections every workload uses:
// the benchmark host has two CPUs.
const workers = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host identifies the machine a record was measured on.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
}

// record is the run record: everything needed to interpret the result.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  int     `json:"seconds"`
	Traced   bool    `json:"traced"`
	Host     host    `json:"host"`
	Result   result  `json:"result"`
	Samples  samples `json:"samples"`
	// LateMs is the open-loop generator's lateness (serve only).
	LateMs *lateness `json:"lateMs,omitempty"`
	// Checks lists the output checks that ran.
	Checks []string `json:"checks"`
	// Digests are the output digests of the run's first job.
	Digests map[string]string `json:"digests,omitempty"`
	// Extra carries workload numbers that are neither end-to-end nor
	// per-layer metrics (e.g. the serve peak-rate figures in an untraced
	// run).
	Extra map[string]float64 `json:"extra,omitempty"`
	// JobWallsMs are the untraced job wall times of a job workload.
	JobWallsMs []float64 `json:"jobWallsMs,omitempty"`
	// TraceFile is the span file of a traced run.
	TraceFile string `json:"traceFile,omitempty"`
}

// samples states how many observations back each reported statistic.
type samples map[string]int

// lateness summarizes how late the open-loop generator sent requests.
type lateness struct {
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
	N   int     `json:"n"`
}

// run is one benchmark invocation's shared state.
type run struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	out     string
	rec     *record
	checks  *checks
	metrics map[string]metric
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "workload to run: transform, mission or serve")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "measured-phase length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for run records and span files")
	flag.Parse()

	if err := mainErr(*workload, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds, trace int, out string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	var fn func(context.Context, *run) error
	switch workload {
	case "transform":
		fn = runTransform
	case "mission":
		fn = runMission
	case "serve":
		fn = runServe
	default:
		return fmt.Errorf("unknown --workload %q (want transform, mission or serve)", workload)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	r := &run{
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		traced:  trace == 1,
		out:     out,
		checks:  &checks{},
		metrics: map[string]metric{},
		rec: &record{
			Workload: workload, Seed: seed, Seconds: seconds, Traced: trace == 1,
			Host: host{
				GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
				GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			},
			Samples: samples{},
		},
	}
	ctx := context.Background()
	if err := fn(ctx, r); err != nil {
		return err
	}
	want := endToEnd
	if r.traced {
		fillPerLayer(r)
		want = perLayer
	} else {
		r.set("peak_rss_mb", "MB", peakRSSMB())
	}
	if err := reportsExactly(r.metrics, want); err != nil {
		return err
	}
	res := result{
		Correct:   r.checks.ok(),
		Attempted: r.checks.attempted,
		Failed:    r.checks.failed,
		Metrics:   r.metrics,
	}
	r.rec.Result = res
	r.rec.Checks = r.checks.names
	if err := emit(r, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("output checks failed:\n  %s", strings.Join(r.checks.failures, "\n  "))
	}
	return nil
}

// reportsExactly checks that a run reports exactly the listed metrics with
// their units, so the result line always matches BENCHMARK.json.
func reportsExactly(got map[string]metric, want []metricName) error {
	if len(got) != len(want) {
		return fmt.Errorf("run reported %d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.name]; !ok || g.Unit != m.unit {
			return fmt.Errorf("run did not report %s in %s", m.name, m.unit)
		}
	}
	return nil
}

// emit writes the run record, then the result as the last stdout line.
func emit(r *run, res result) error {
	rec, err := json.Marshal(r.rec)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.rec.Workload, r.seed, boolInt(r.traced))
	if err := os.WriteFile(filepath.Join(r.out, name), append(rec, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "record %s\n", rec)
	w.Write(line)
	w.WriteByte('\n')
	return w.Flush()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in megabytes,
// falling back to the Go runtime's obtained memory where /proc is absent.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// memDelta measures Go heap allocation and GC cycles over a phase.
type memDelta struct {
	before runtime.MemStats
}

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop returns the allocated megabytes and completed GC cycles since start.
func (m *memDelta) stop() (allocMB, gcCycles float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20), float64(after.NumGC - m.before.NumGC)
}

// timeSetup runs setup n times and returns the median duration in seconds
// and the last run's value.
func timeSetup[T any](n int, setup func() (T, error)) (float64, T, error) {
	var last T
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return 0, last, fmt.Errorf("setup: %w", err)
		}
		durs = append(durs, time.Since(start).Seconds())
		last = v
	}
	return median(durs), last, nil
}
