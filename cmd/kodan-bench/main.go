// Command kodan-bench regenerates every table and figure of the paper's
// evaluation and prints the rows the paper reports. The figures, their
// keys and their report order come from the experiments registry
// ((*experiments.Lab).Figures). By default it runs the full-size
// experiments; -size=quick runs the down-sized variant used by unit
// tests. It generates and exports figures; it makes no speed claims (the
// repository benchmark, perfbench, does), and the layer micro-benchmarks
// sit next to the code they time (go test -bench).
//
// Usage:
//
//	kodan-bench [-size full|quick] [-parallel N] [-only table1,fig2,...] [-csv DIR] [-json DIR]
//	            [-trace FILE] [-cpuprofile FILE] [-memprofile FILE] [-v]
//
// -only selects registry keys (an unknown key is an error that lists the
// valid ones). -parallel bounds the evaluation worker pool (0 =
// GOMAXPROCS, 1 = sequential); every setting produces byte-identical
// output, and a negative value is a usage error. -csv writes one
// <key>.csv per selected table/figure; -json writes one BENCH_<key>.json
// (an array of row objects) for machine consumption. bench/ holds the
// committed BENCH_<key>.json files of a -size quick run, which the verify
// gate regenerates and compares byte for byte.
//
// -trace records a span trace of the run (one span per figure, with the
// transformation, simulation, and policy-sweep phases nested inside) as
// JSONL and prints an end-of-run summary to stderr; -cpuprofile and
// -memprofile write pprof profiles. Telemetry goes to its files and
// stderr only — stdout (the figures) stays byte-identical with or
// without it, at every -parallel setting. -v emits structured slog debug
// lines from the instrumented layers to stderr.
//
// The resilience figure sweeps injected fault intensity (station
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
	"slices"
	"strings"
	"syscall"
	"time"

	"kodan/internal/experiments"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/analyze"
)

// validateFlags rejects out-of-range flag values up front, before any
// expensive work starts.
func validateFlags(parallel int) error {
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = GOMAXPROCS), got %d", parallel)
	}
	return nil
}

// figureKeys lists the keys of figs in order.
func figureKeys(figs []experiments.Figure) []string {
	keys := make([]string, len(figs))
	for i, f := range figs {
		keys[i] = f.Key
	}
	return keys
}

// selectFigures filters the registry by a comma-separated -only value,
// preserving report order. An unknown name is an error listing the valid
// keys — silently producing no output would mask typos like "fig7".
func selectFigures(figs []experiments.Figure, only string) ([]experiments.Figure, error) {
	if strings.TrimSpace(only) == "" {
		return figs, nil
	}
	keys := figureKeys(figs)
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if !slices.Contains(keys, k) {
			return nil, fmt.Errorf("unknown figure %q in -only; valid names: %s", k, strings.Join(keys, ", "))
		}
		want[k] = true
	}
	var out []experiments.Figure
	for _, f := range figs {
		if want[f.Key] {
			out = append(out, f)
		}
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("kodan-bench: ")
	sizeFlag := flag.String("size", "full", "experiment scale: full or quick")
	onlyFlag := flag.String("only", "", "comma-separated subset of: "+
		strings.Join(figureKeys(experiments.NewLab(experiments.Quick).Figures()), ","))
	parallelFlag := flag.Int("parallel", 0, "evaluation worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	csvDir := flag.String("csv", "", "also write per-figure CSV files to this directory")
	jsonDir := flag.String("json", "", "also write one BENCH_<figure>.json per table/figure to this directory")
	traceFile := flag.String("trace", "", "write a JSONL span trace to this file and print a summary to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	verbose := flag.Bool("v", false, "structured debug logs (slog) to stderr")
	flag.Parse()

	if err := validateFlags(*parallelFlag); err != nil {
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

	figs, err := selectFigures(lab.Figures(), *onlyFlag)
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

	for _, f := range figs {
		t0 := time.Now()
		out, rows, err := f.Run(ctx)
		if err != nil {
			log.Fatalf("%s: %v", f.Key, err)
		}
		took := time.Since(t0)
		fmt.Println(out)
		writeCSV(f.Key, rows)
		writeJSON(f.Key, rows)
		fmt.Fprintf(os.Stderr, "[%s took %v]\n\n", f.Key, took.Round(time.Millisecond))
	}

	fmt.Fprintf(os.Stderr, "total: %v\n", time.Since(start).Round(time.Millisecond))

	if perr := stopProfile(); perr != nil {
		log.Printf("profiling: %v", perr)
	}
	if tracer != nil {
		if werr := telemetry.WriteTraceFile(tracer, *traceFile); werr != nil {
			log.Fatal(werr)
		}
		fmt.Fprint(os.Stderr, analyze.RenderTracer(tracer, 10))
	}
}
