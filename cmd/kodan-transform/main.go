// Command kodan-transform runs Kodan's one-time transformation step for
// one application and deployment target and prints the generated selection
// logic: the chosen frame tiling and the per-context action table of
// Figure 7, together with the expected frame time and data value density.
//
// Usage:
//
//	kodan-transform [-app 4] [-target orin|i7|1070ti] [-seed 2023] [-frames 120] [-quantized] [-bundle out.json] [-trace FILE]
//
// -quantized derives int8 twins of every trained model and routes all
// suite predictions — the quality measurement the selection logic prices
// included — through the quantized hot path. Training stays float, so the
// flag isolates exactly the inference-path change.
//
// -trace records a JSONL span trace of the transformation (workspace
// preparation, per-tiling training and measurement, nn.train/nn.infer
// stages with their variant attributes) for kodan-inspect trace; diffing a float
// run against a -quantized run attributes the speedup per phase.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"kodan"
	"kodan/internal/hw"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/analyze"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kodan-transform: ")
	appIdx := flag.Int("app", 4, "application index (1-7, Table 1)")
	targetFlag := flag.String("target", "orin", "hardware target: 1070ti, i7, or orin")
	seed := flag.Uint64("seed", 2023, "transformation seed")
	frames := flag.Int("frames", 120, "representative dataset size in frames")
	quantized := flag.Bool("quantized", false, "measure and deploy the int8 quantized inference path")
	bundleOut := flag.String("bundle", "", "write the deployment bundle (JSON) to this path")
	traceFile := flag.String("trace", "", "write a JSONL span trace to this file and print a summary to stderr")
	flag.Parse()

	target, err := hw.ParseTarget(*targetFlag)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("simulating the Landsat 8 mission (orbit, grid, ground segment)...")
	mission, err := kodan.LandsatMission(kodan.ReferenceEpoch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  frame deadline: %.1f s   frames/day: %.0f   downlink: %.1f%% of observations\n\n",
		mission.FrameDeadline.Seconds(), mission.FramesPerDay, 100*mission.CapacityFrac)

	cfg := kodan.DefaultTransformConfig(*seed)
	cfg.Frames = *frames
	fmt.Printf("rendering the representative dataset and generating contexts (%d frames)...\n", cfg.Frames)
	sys, err := kodan.NewSystemCtx(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d contexts:\n", sys.ContextCount())
	for i, c := range sys.Contexts() {
		fmt.Printf("    C%d %-18s tiles=%-4d high-value=%.2f\n", i, c.Name, c.Count, c.HighValueFrac)
	}

	variant := "float"
	if *quantized {
		variant = "int8 quantized"
	}
	ctx := context.Background()
	var tracer *telemetry.Tracer
	if *traceFile != "" {
		tracer = telemetry.NewTracer(0)
		ctx = telemetry.WithProbe(ctx, telemetry.Probe{Trace: tracer})
	}

	fmt.Printf("\ntraining and measuring App %d across tilings (%s inference)...\n", *appIdx, variant)
	app, err := sys.TransformVariantCtx(ctx, *appIdx, *quantized)
	if err != nil {
		log.Fatal(err)
	}
	if tracer != nil {
		if werr := telemetry.WriteTraceFile(tracer, *traceFile); werr != nil {
			log.Fatal(werr)
		}
		fmt.Fprint(os.Stderr, analyze.RenderTracer(tracer, 10))
	}

	d := mission.Deployment(target)
	logic, est := app.SelectionLogic(d)
	bent := app.BentPipe(d)

	fmt.Printf("\nselection logic for %v on %v:\n", app.Arch(), target)
	fmt.Printf("  frame tiling: %v\n", logic.Tiling)
	for c, a := range logic.Actions {
		fmt.Printf("  C%d %-18s -> %v\n", c, sys.Contexts()[c].Name, a)
	}
	fmt.Printf("\nexpected frame time: %.1f s (deadline %.1f s, processed %.0f%%)\n",
		est.FrameTime.Seconds(), mission.FrameDeadline.Seconds(), 100*est.ProcessedFrac)
	fmt.Printf("expected DVD: %.3f (bent pipe %.3f, %+.0f%%)\n",
		est.DVD, bent.DVD, 100*(est.DVD/bent.DVD-1))

	if *bundleOut != "" {
		f, err := os.Create(*bundleOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := app.ExportBundle(f, d, logic, est); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote deployment bundle to %s\n", *bundleOut)
	}
}
