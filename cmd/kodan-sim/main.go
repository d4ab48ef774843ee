// Command kodan-sim runs the cote-equivalent constellation simulation and
// prints per-satellite capture and downlink ledgers: frames observed,
// unique scenes, granted contact time, and downlink capacity in frames.
//
// Usage:
//
//	kodan-sim [-sats 4] [-hours 24] [-planes 1] [-camera ms|hyper] [-parallel N]
//	          [-faults FILE | -fault-intensity X [-fault-seed N]]
//	          [-transform-app N [-quantized]]
//	          [-events FILE] [-trace FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// -parallel bounds the per-satellite propagation worker pool (0 =
// GOMAXPROCS, 1 = sequential); every setting produces identical ledgers.
//
// -faults loads a fault schedule (JSON, see examples/faults/) and runs the
// mission degraded: station outages cut contact windows, link fades derate
// downlink capacity, sensor dropouts and satellite resets drop captures.
// -fault-intensity generates a schedule deterministically from -fault-seed
// instead; the same seed and intensity always produce the same faults.
// The two are mutually exclusive.
//
// -events writes the mission event journal — captures, scene boundaries,
// contact windows, downlink grants, fault windows, planner dispositions,
// and the deferral-drain replay — as strict JSONL stamped in *sim* time
// (the simulated instant, not wall time). The journal is byte-identical
// at every -parallel setting and feeds kodan-inspect events (summary,
// timeline, anomalies, diff). Like -trace, it observes the run without changing it.
//
// -trace records a span trace of the run (per-satellite propagation,
// capture, contact-window, and downlink phases, plus the -transform-app
// training and inference phases when enabled) as JSONL and prints to
// stderr the summary kodan-inspect trace summary renders for that file —
// per-phase self and total time and the slowest spans. The file feeds
// kodan-inspect trace (summary, critical, folded, diff). -cpuprofile and
// -memprofile write pprof profiles. None of the
// three changes the ledgers: telemetry observes the run, it never feeds
// back into it.
//
// -transform-app N runs a demo-scale Kodan transformation for Table 1
// application N after the simulation and prints the selection logic and
// expected data value density the simulated mission would deploy with;
// -quantized routes the transform's inference (including the quality
// measurement the selection logic prices) through the int8 quantized hot
// path and is rejected without -transform-app.
//
// -plan hybrid runs the space-ground execution planner (internal/planner)
// over the simulated link: the capture stream, split into eight equal
// slices, is placed among
// immediate raw downlink, deferred store-and-forward (priced at
// -ground-cost per frame and held in a -buffer-frames on-board buffer),
// and drop, and the deferred traffic is replayed through the run's actual
// contact schedule for delivery latency. Contradictory combinations are
// rejected up front: -ground-cost or -buffer-frames without -plan hybrid,
// unknown -plan values, and (with -plan hybrid) a fault schedule that has
// no windows or whose station faults name stations absent from the ground
// segment — such a schedule would silently re-plan as if fault-free.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kodan"
	"kodan/internal/app"
	"kodan/internal/fault"
	"kodan/internal/planner"
	"kodan/internal/policy"
	"kodan/internal/sense"
	"kodan/internal/sim"
	"kodan/internal/telemetry"
	"kodan/internal/telemetry/analyze"
	"kodan/internal/telemetry/events"
	"kodan/internal/tiling"
)

// simFlags carries the validated command line.
type simFlags struct {
	sats, hours, planes int
	camera, plan        string
	groundCost          float64
	bufferFrames        float64
	faultsFile          string
	faultIntensity      float64
	transformApp        int
	quantized           bool
}

// validateFlags rejects contradictory flag combinations before any work
// starts. explicitly reports which flags the user set on the command line
// (defaults are not contradictions).
func validateFlags(explicitly map[string]bool, f simFlags) error {
	if f.sats < 1 {
		return fmt.Errorf("-sats must be >= 1, got %d", f.sats)
	}
	if f.hours < 1 {
		return fmt.Errorf("-hours must be >= 1, got %d", f.hours)
	}
	if f.planes < 1 {
		return fmt.Errorf("-planes must be >= 1, got %d", f.planes)
	}
	switch f.camera {
	case "ms", "hyper":
	default:
		return fmt.Errorf("unknown -camera %q (want ms or hyper)", f.camera)
	}
	switch f.plan {
	case "", "hybrid":
	default:
		return fmt.Errorf("unknown -plan %q (want hybrid)", f.plan)
	}
	if f.plan != "hybrid" {
		if explicitly["ground-cost"] {
			return fmt.Errorf("-ground-cost has no effect without -plan hybrid")
		}
		if explicitly["buffer-frames"] {
			return fmt.Errorf("-buffer-frames has no effect without -plan hybrid")
		}
	}
	if f.groundCost < 0 {
		return fmt.Errorf("-ground-cost must be >= 0, got %g", f.groundCost)
	}
	if f.bufferFrames < 0 {
		return fmt.Errorf("-buffer-frames must be >= 0, got %g", f.bufferFrames)
	}
	if f.faultsFile != "" && f.faultIntensity > 0 {
		return fmt.Errorf("-faults and -fault-intensity are mutually exclusive")
	}
	if f.faultIntensity < 0 {
		return fmt.Errorf("-fault-intensity must be >= 0, got %g", f.faultIntensity)
	}
	if f.transformApp != 0 && (f.transformApp < 1 || f.transformApp > len(app.Apps())) {
		return fmt.Errorf("-transform-app must be 1..%d, got %d", len(app.Apps()), f.transformApp)
	}
	if f.quantized && f.transformApp == 0 {
		return fmt.Errorf("-quantized has no effect without -transform-app")
	}
	return nil
}

// validateSchedule rejects a fault schedule that cannot drive hybrid
// re-planning: the planner reads the link shape from the simulated run, so
// a schedule with no windows, or whose station faults name stations absent
// from the ground segment, would silently plan as if fault-free.
func validateSchedule(plan string, sched *fault.Schedule, stations []string) error {
	if plan != "hybrid" || sched == nil {
		return nil
	}
	if len(sched.Windows) == 0 {
		return fmt.Errorf("-plan hybrid with an empty fault schedule: nothing to re-plan against")
	}
	known := map[string]bool{}
	for _, s := range stations {
		known[s] = true
	}
	for _, w := range sched.Windows {
		if (w.Kind == fault.StationOutage || w.Kind == fault.LinkFade) && !known[w.Station] {
			return fmt.Errorf("fault schedule names unknown station %q (ground segment: %s)",
				w.Station, strings.Join(stations, ", "))
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("kodan-sim: ")
	sats := flag.Int("sats", 4, "constellation population")
	hours := flag.Int("hours", 24, "simulated duration in hours")
	planes := flag.Int("planes", 1, "orbital planes")
	camera := flag.String("camera", "ms", "payload: ms (multispectral) or hyper")
	parallel := flag.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	plan := flag.String("plan", "", `execution planning: "hybrid" runs the space-ground planner on the simulated link`)
	groundCost := flag.Float64("ground-cost", 0.5, "with -plan hybrid: ground-compute price per deferred frame")
	bufferFrames := flag.Float64("buffer-frames", 64, "with -plan hybrid: on-board deferral buffer in frame-size units")
	faultsFile := flag.String("faults", "", "load a fault schedule (JSON) and run the mission degraded")
	faultIntensity := flag.Float64("fault-intensity", 0, "generate a fault schedule at this intensity (0 = none, 1 = paper scale)")
	faultSeed := flag.Uint64("fault-seed", 2023, "seed for -fault-intensity schedule generation")
	transformApp := flag.Int("transform-app", 0, "after the simulation, transform this Table 1 application (1-7) for the simulated mission (0 = off)")
	quantized := flag.Bool("quantized", false, "with -transform-app: run the transform's inference through the int8 quantized path")
	verbose := flag.Bool("v", false, "structured debug logs (slog) to stderr")
	eventsFile := flag.String("events", "", "write the sim-time mission event journal (JSONL) to this file")
	traceFile := flag.String("trace", "", "write a JSONL span trace to this file and print a summary to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	explicitly := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicitly[f.Name] = true })
	if err := validateFlags(explicitly, simFlags{
		sats: *sats, hours: *hours, planes: *planes,
		camera: *camera, plan: *plan,
		groundCost: *groundCost, bufferFrames: *bufferFrames,
		faultsFile: *faultsFile, faultIntensity: *faultIntensity,
		transformApp: *transformApp, quantized: *quantized,
	}); err != nil {
		log.Fatal(err)
	}

	cfg := sim.Landsat8Config(kodan.ReferenceEpoch, time.Duration(*hours)*time.Hour, *sats)
	cfg.Planes = *planes
	cfg.Workers = *parallel
	if *camera == "hyper" {
		cfg.Camera = sense.Landsat8Hyper()
	}

	var sched *fault.Schedule
	switch {
	case *faultsFile != "":
		var err error
		if sched, err = fault.LoadFile(*faultsFile); err != nil {
			log.Fatal(err)
		}
	case *faultIntensity > 0:
		sched = generateSchedule(cfg, *faultIntensity, *faultSeed)
	}

	if err := validateSchedule(*plan, sched, stationNames(cfg)); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if sched != nil {
		ctx = fault.WithInjector(ctx, fault.NewInjector(sched))
	}

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

	var journal *events.Journal
	if *eventsFile != "" {
		journal = events.NewJournal()
		ctx = events.WithJournal(ctx, journal)
	}

	res, err := sim.RunCtx(ctx, cfg)
	if perr := stopProfile(); perr != nil {
		log.Printf("profiling: %v", perr)
	}
	if err != nil {
		log.Fatal(err)
	}
	m, err := kodan.MissionOf(res)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("constellation: %d satellites, %d plane(s), %dh, %s payload (%.1f Gbit/frame)\n",
		*sats, cfg.Planes, *hours, cfg.Camera.Name, m.FrameBits/1e9)
	fmt.Printf("frame deadline: %.1f s\n", m.FrameDeadline.Seconds())
	if sched != nil {
		fmt.Printf("faults: %s\n", sched.Summary())
	}
	fmt.Println()

	caps := res.FrameCapacityPerSat()
	fmt.Printf("%4s %10s %12s %14s\n", "Sat", "Frames", "Contact", "DownlinkFrames")
	for i, c := range res.Captures {
		fmt.Printf("%4d %10d %12v %14.1f\n", i, len(c), res.Served[i].Round(time.Second), caps[i])
	}
	fmt.Printf("\ntotals: observed %d frames, %d unique scenes (%.1f%% of grid), downlink capacity %.1f frames (%.1f%% of observed)\n",
		res.FramesObserved(), res.UniqueScenes(),
		100*float64(res.UniqueScenes())/float64(cfg.Grid.TotalScenes()),
		res.FrameCapacity(), 100*res.FrameCapacity()/float64(res.FramesObserved()))

	if *plan == "hybrid" {
		if err := printHybridPlan(ctx, os.Stdout, res, m, *groundCost, *bufferFrames); err != nil {
			log.Fatal(err)
		}
	}

	if *transformApp != 0 {
		if err := printTransform(ctx, os.Stdout, m, *transformApp, *quantized); err != nil {
			log.Fatal(err)
		}
	}

	// The journal is flushed after planning so -plan hybrid runs record
	// the planner dispositions and the deferral-drain replay alongside
	// the simulation's captures, contacts, grants, and faults.
	if journal != nil {
		if werr := events.WriteFile(journal, *eventsFile); werr != nil {
			log.Fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "mission event journal: %d events -> %s\n", journal.Len(), *eventsFile)
	}

	// The trace is flushed last so a -transform-app run records the
	// transform phases (nn.train, nn.infer, ...) alongside the simulation,
	// which is what makes float-vs-quantized trace diffs possible.
	if tracer != nil {
		if werr := telemetry.WriteTraceFile(tracer, *traceFile); werr != nil {
			log.Fatal(werr)
		}
		fmt.Fprint(os.Stderr, analyze.RenderTracer(tracer, 10))
	}
}

// stationNames lists the ground segment's station names.
func stationNames(cfg sim.Config) []string {
	names := make([]string, len(cfg.Stations))
	for i, st := range cfg.Stations {
		names[i] = st.Name
	}
	return names
}

// generateSchedule draws the run's fault schedule at intensity from seed;
// the same seed and intensity always produce the same faults.
func generateSchedule(cfg sim.Config, intensity float64, seed uint64) *fault.Schedule {
	return fault.Generate(fault.GenConfig{
		Seed:      seed,
		Start:     cfg.Epoch,
		Span:      cfg.Span,
		Intensity: intensity,
		Stations:  stationNames(cfg),
		Sats:      cfg.Satellites,
	})
}

// printTransform runs a demo-scale Kodan transformation for one Table 1
// application and writes to w the selection logic the simulated mission
// would fly: the deadline and downlink capacity come from the mission m
// derived from the run above, so a degraded (fault-injected) link
// produces a different deployment than a clean one. With quantized set,
// every model also derives its int8 twin and the quality measurement
// prices the quantization error into the selection. The dataset is the
// demo sizing (kodan.DemoTransformConfig) to keep the CLI interactive;
// use kodan-transform or kodan-bench for the full-scale transformation.
func printTransform(ctx context.Context, w io.Writer, m kodan.Mission, appIdx int, quantized bool) error {
	variant := "float"
	if quantized {
		variant = "int8 quantized"
	}
	fmt.Fprintf(w, "\ntransforming App %d for the simulated mission (%s inference, demo scale)...\n", appIdx, variant)
	sys, err := kodan.NewSystemCtx(ctx, kodan.DemoTransformConfig(2023))
	if err != nil {
		return err
	}
	app, err := sys.TransformVariantCtx(ctx, appIdx, quantized)
	if err != nil {
		return err
	}
	d := m.Deployment(kodan.Orin15W)
	sel, est := app.SelectionLogic(d)
	bent := app.BentPipe(d)
	fmt.Fprintf(w, "  selection logic on %v: tiling %v\n", d.Target, sel.Tiling)
	for c, a := range sel.Actions {
		fmt.Fprintf(w, "    C%d %-18s -> %v\n", c, sys.Contexts()[c].Name, a)
	}
	fmt.Fprintf(w, "  expected frame time %.1f s (deadline %.1f s), DVD %.3f (bent pipe %.3f, %+.0f%%)\n",
		est.FrameTime.Seconds(), d.Deadline.Seconds(), est.DVD, bent.DVD, 100*(est.DVD/bent.DVD-1))
	return nil
}

// printHybridPlan places the capture stream with the hybrid planner
// against the simulated (possibly fault-injected) link and writes to w
// the plan and the replay of the planned traffic through the run's
// contact schedule. The stream is split into eight equal slices, each at
// the reference prevalence, so the planner can place fractions of a frame
// rather than all-or-nothing; no on-board models run here — kodan-sim has
// no transformed application — so the Onboard placement coincides with raw
// immediate downlink and the interesting decision is raw-now versus defer
// versus drop, slice by slice.
func printHybridPlan(ctx context.Context, w io.Writer, res *sim.Result, m kodan.Mission, groundCost, bufferFrames float64) error {
	const slices = 8
	prof := policy.TilingProfile{Tiling: tiling.Tiling{PerSide: 1}}
	base := policy.Selection{Tiling: prof.Tiling}
	for i := 0; i < slices; i++ {
		prof.Contexts = append(prof.Contexts, policy.ContextProfile{
			TileFrac: 1.0 / slices, HighValueFrac: m.Prevalence,
		})
		base.Actions = append(base.Actions, policy.Downlink)
	}
	env := m.HybridEnv()
	env.Policy = policy.Env{Target: kodan.Orin15W, Deadline: m.FrameDeadline, CapacityFrac: m.CapacityFrac}
	env.Costs.GroundPerFrame = groundCost
	env.BufferFrames = bufferFrames
	pl, err := planner.DecideCtx(ctx, prof, base, env)
	if err != nil {
		return err
	}
	ev := pl.Eval
	st := res.DrainDeferredCtx(ctx, (ev.NowBits+ev.DeferBits)*m.FrameBits, bufferFrames*m.FrameBits)
	fmt.Fprintf(w, "\nhybrid plan (capture stream in %d slices, ground cost %.2f, buffer %.0f frames):\n", slices, groundCost, bufferFrames)
	fmt.Fprintf(w, "  placement: downlink-now %.0f%%, defer %.0f%%, drop %.0f%% (utility %.3f)\n",
		100*(ev.OnboardFrac+ev.DownlinkFrac), 100*ev.DeferFrac, 100*ev.DropFrac, ev.Utility)
	fmt.Fprintf(w, "  link: %.3f now + %.3f deferred frame-fractions per observed frame (capacity %.3f, contact gap %.1f frames)\n",
		ev.NowBits, ev.DeferBits, env.Policy.CapacityFrac, env.FramesBetweenContacts)
	fmt.Fprintf(w, "  store-and-forward: delivered %.1f Gbit, dropped %.1f, residual %.1f; latency mean %v max %v; peak buffer %.1f Gbit\n",
		st.DeliveredBits/1e9, st.DroppedBits/1e9, st.ResidualBits/1e9,
		st.MeanLatency.Round(time.Second), st.MaxLatency.Round(time.Second), st.PeakBufferBits/1e9)
	return nil
}
