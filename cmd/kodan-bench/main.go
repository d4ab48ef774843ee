// Command kodan-bench regenerates every table and figure of the paper's
// evaluation and prints the rows the paper reports. By default it runs the
// full-size experiments (the same scale as the repository's benchmark
// suite); -size=quick runs the down-sized variant used by unit tests.
//
// Usage:
//
//	kodan-bench [-size full|quick] [-parallel N] [-only table1,fig2,...] [-csv DIR] [-json DIR]
//	            [-trace FILE] [-cpuprofile FILE] [-memprofile FILE]
//	            [-timings FILE] [-baseline FILE] [-regress-threshold 0.5] [-v]
//
// -parallel bounds the evaluation worker pool (0 = GOMAXPROCS, 1 =
// sequential); every setting produces byte-identical output. -csv writes
// one <figure>.csv per selected table/figure; -json writes one
// BENCH_<figure>.json (an array of row objects) for machine consumption.
//
// -trace records a span trace of the run (one span per figure, with the
// transformation, simulation, and policy-sweep phases nested inside) as
// JSONL and prints an end-of-run summary to stderr; -cpuprofile and
// -memprofile write pprof profiles. Telemetry goes to its files and
// stderr only — stdout (the figures) stays byte-identical with or
// without it, at every -parallel setting.
//
// -timings records per-figure wall times as a JSON timing report;
// -baseline compares this run against a previously recorded report and
// exits nonzero when any figure regressed beyond -regress-threshold (the
// perf-regression gate `make bench-check` drives; bench/ holds the
// committed trajectory). -v emits structured slog debug lines from the
// instrumented layers to stderr.
//
// Contradictory flag combinations are rejected before any work starts:
// -regress-threshold without -baseline, -baseline and -timings naming the
// same file, and a negative -parallel are all usage errors.
//
// The "resilience" figure sweeps injected fault intensity (station
// outages, link fades, sensor dropouts, satellite resets; see
// internal/fault) and reports downlinked value retained versus the
// fault-free baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"kodan/internal/experiments"
	"kodan/internal/telemetry"
)

// generator produces one table or figure: the rendered text plus the typed
// rows for CSV/JSON export.
type generator struct {
	key string
	gen func(ctx context.Context) (string, interface{}, error)
}

// generators lists every table and figure in report order.
func generators(lab *experiments.Lab) []generator {
	return []generator{
		{"table1", func(context.Context) (string, interface{}, error) {
			rows := experiments.Table1()
			return experiments.RenderTable1(rows), rows, nil
		}},
		{"fig2", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure2Ctx(ctx, lab.SatCounts())
			return experiments.RenderFigure2(rows), rows, err
		}},
		{"fig3", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure3Ctx(ctx, lab.SatCounts())
			return experiments.RenderFigure3(rows), rows, err
		}},
		{"fig4", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure4Ctx(ctx)
			return experiments.RenderFigure4(rows), rows, err
		}},
		{"fig5", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure5Ctx(ctx, lab.SatCounts())
			return experiments.RenderFigure5(rows), rows, err
		}},
		{"fig8", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure8Ctx(ctx)
			if err != nil {
				return "", nil, err
			}
			lo, hi := experiments.Headline(rows)
			return experiments.RenderFigure8(rows) +
				fmt.Sprintf("headline: Kodan improves DVD %.0f%%..%.0f%% over the bent pipe (paper: 89-97%%)\n",
					lo*100, hi*100), rows, nil
		}},
		{"fig8q", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure8QuantizedCtx(ctx)
			return experiments.RenderFigure8Quantized(rows), rows, err
		}},
		{"fig9", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure9Ctx(ctx)
			return experiments.RenderFigure9(rows), rows, err
		}},
		{"fig10", func(ctx context.Context) (string, interface{}, error) {
			pts, err := lab.Figure10Ctx(ctx)
			return experiments.RenderFigure10(pts), pts, err
		}},
		{"fig11", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure11Ctx(ctx)
			return experiments.RenderFigure11(rows), rows, err
		}},
		{"fig12", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure12Ctx(ctx)
			return experiments.RenderFigure12(rows), rows, err
		}},
		{"fig13", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure13Ctx(ctx)
			return experiments.RenderFigure13(rows), rows, err
		}},
		{"fig14", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure14Ctx(ctx)
			return experiments.RenderFigure14(rows), rows, err
		}},
		{"fig15", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.Figure15Ctx(ctx)
			return experiments.RenderFigure15(rows), rows, err
		}},
		{"ablation-k", func(ctx context.Context) (string, interface{}, error) {
			ks := []int{2, 4, 6, 8, 10}
			if lab.Size == experiments.Quick {
				ks = []int{2, 6}
			}
			rows, err := lab.AblationContextCountCtx(ctx, ks)
			return experiments.RenderAblationContextCount(rows), rows, err
		}},
		{"ablation-source", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.AblationContextSourceCtx(ctx)
			return experiments.RenderAblationContextSource(rows), rows, err
		}},
		{"resilience", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.ResilienceSweepCtx(ctx)
			return experiments.RenderResilience(rows), rows, err
		}},
		{"hybridplan", func(ctx context.Context) (string, interface{}, error) {
			rows, err := lab.HybridPlanSweepCtx(ctx)
			return experiments.RenderHybridPlan(rows), rows, err
		}},
	}
}

// validateFlags rejects contradictory flag combinations up front, before
// any expensive work starts. explicitly reports which flags the user set
// on the command line (flag defaults are not contradictions).
func validateFlags(explicitly map[string]bool, baseline, timings string, parallel int) error {
	if explicitly["regress-threshold"] && baseline == "" {
		return fmt.Errorf("-regress-threshold has no effect without -baseline")
	}
	if baseline != "" && timings != "" && baseline == timings {
		return fmt.Errorf("-baseline and -timings point at the same file %q: the baseline would be overwritten before the comparison", baseline)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = GOMAXPROCS), got %d", parallel)
	}
	return nil
}

// selectGenerators filters the table by a comma-separated -only value,
// preserving report order. An unknown name is an error listing the valid
// keys — silently producing no output would mask typos like "fig7".
func selectGenerators(gens []generator, only string) ([]generator, error) {
	if strings.TrimSpace(only) == "" {
		return gens, nil
	}
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		found := false
		for _, g := range gens {
			if g.key == k {
				found = true
				break
			}
		}
		if !found {
			keys := make([]string, len(gens))
			for i, g := range gens {
				keys[i] = g.key
			}
			return nil, fmt.Errorf("unknown figure %q in -only; valid names: %s", k, strings.Join(keys, ", "))
		}
		want[k] = true
	}
	var out []generator
	for _, g := range gens {
		if want[g.key] {
			out = append(out, g)
		}
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("kodan-bench: ")
	sizeFlag := flag.String("size", "full", "experiment scale: full or quick")
	onlyFlag := flag.String("only", "", "comma-separated subset (table1,fig2,...,fig15,ablation-k,ablation-source,resilience,hybridplan)")
	parallelFlag := flag.Int("parallel", 0, "evaluation worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	csvDir := flag.String("csv", "", "also write per-figure CSV files to this directory")
	jsonDir := flag.String("json", "", "also write one BENCH_<figure>.json per table/figure to this directory")
	traceFile := flag.String("trace", "", "write a JSONL span trace to this file and print a summary to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	timingsFile := flag.String("timings", "", "write this run's per-figure wall times as a timing report (JSON)")
	baselineFile := flag.String("baseline", "", "compare per-figure wall times against this timing report and exit nonzero on a regression")
	regressThreshold := flag.Float64("regress-threshold", 0.5, "with -baseline: fail when a figure is more than this fraction slower (0.5 = +50%)")
	verbose := flag.Bool("v", false, "structured debug logs (slog) to stderr")
	flag.Parse()

	explicitly := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicitly[f.Name] = true })
	if err := validateFlags(explicitly, *baselineFile, *timingsFile, *parallelFlag); err != nil {
		log.Fatal(err)
	}

	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
	}

	size := experiments.Full
	switch *sizeFlag {
	case "full":
	case "quick":
		size = experiments.Quick
	default:
		log.Fatalf("unknown -size %q", *sizeFlag)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *verbose {
		ctx = telemetry.WithLogger(ctx, slog.New(slog.NewTextHandler(os.Stderr,
			&slog.HandlerOptions{Level: slog.LevelDebug})))
	}

	stopProfile, err := telemetry.StartProfiling(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}

	var tracer *telemetry.Tracer
	if *traceFile != "" {
		tracer = telemetry.NewTracer(0)
		ctx = telemetry.WithProbe(ctx, telemetry.Probe{Trace: tracer})
	}

	lab := experiments.NewLab(size)
	lab.Workers = *parallelFlag

	gens, err := selectGenerators(generators(lab), *onlyFlag)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()

	writeCSV := func(key string, rows interface{}) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, key+".csv"))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := experiments.WriteCSV(f, rows); err != nil {
			log.Fatalf("%s: %v", key, err)
		}
	}

	writeJSON := func(key string, rows interface{}) {
		if *jsonDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*jsonDir, "BENCH_"+key+".json"))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := experiments.WriteJSON(f, rows); err != nil {
			log.Fatalf("%s: %v", key, err)
		}
	}

	report := experiments.TimingReport{Size: *sizeFlag, Parallel: *parallelFlag}
	for _, g := range gens {
		t0 := time.Now()
		out, rows, err := g.gen(ctx)
		if err != nil {
			log.Fatalf("%s: %v", g.key, err)
		}
		took := time.Since(t0)
		fmt.Println(out)
		writeCSV(g.key, rows)
		writeJSON(g.key, rows)
		report.Figures = append(report.Figures, experiments.FigureTiming{Key: g.key, WallSeconds: took.Seconds()})
		fmt.Fprintf(os.Stderr, "[%s took %v]\n\n", g.key, took.Round(time.Millisecond))
	}

	fmt.Fprintf(os.Stderr, "total: %v\n", time.Since(start).Round(time.Millisecond))

	if perr := stopProfile(); perr != nil {
		log.Printf("profiling: %v", perr)
	}
	if tracer != nil {
		if werr := telemetry.WriteTraceFile(tracer, *traceFile); werr != nil {
			log.Fatal(werr)
		}
		fmt.Fprint(os.Stderr, telemetry.Summarize(tracer, 10).Render())
	}

	if *timingsFile != "" {
		f, err := os.Create(*timingsFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteTimingReport(f, report); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *baselineFile != "" {
		rendered, failed, err := checkBaseline(*baselineFile, report, *regressThreshold)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprint(os.Stderr, rendered)
		if failed {
			os.Exit(1)
		}
	}
}

// checkBaseline compares this run's timing report against the baseline
// file. It returns the rendered comparison and whether the run regressed.
func checkBaseline(path string, current experiments.TimingReport, threshold float64) (string, bool, error) {
	baseline, err := experiments.ReadTimingReport(path)
	if err != nil {
		return "", false, err
	}
	regressions, skipped, err := experiments.CompareTimings(baseline, current, threshold)
	if err != nil {
		return "", false, err
	}
	return experiments.RenderTimingComparison(regressions, skipped, threshold), len(regressions) > 0, nil
}
