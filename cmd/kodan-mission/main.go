// Command kodan-mission runs the time-resolved multi-day deployment
// simulator: it performs the one-time transformation, generates the
// selection logic for the chosen target, and then flies the deployment
// through the chronological event loop (captures, contacts, processor
// occupancy, onboard buffer), printing the mission ledger and an energy
// budget check, with bent-pipe and direct-deploy baselines on the same
// timeline.
//
// Usage:
//
//	kodan-mission [-app 7] [-target orin] [-days 3] [-buffer-gb 256]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"kodan"
	"kodan/internal/hw"
	"kodan/internal/mission"
	"kodan/internal/orbit"
	"kodan/internal/policy"
	"kodan/internal/power"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kodan-mission: ")
	appIdx := flag.Int("app", 7, "application index (1-7)")
	targetFlag := flag.String("target", "orin", "hardware target: 1070ti, i7, or orin")
	days := flag.Int("days", 3, "mission duration in days")
	bufferGB := flag.Float64("buffer-gb", 256, "onboard buffer in GB (0 = unlimited)")
	frames := flag.Int("frames", 60, "transformation dataset size in frames")
	flag.Parse()

	target, err := hw.ParseTarget(*targetFlag)
	if err != nil {
		log.Fatal(err)
	}

	epoch := kodan.ReferenceEpoch
	m, err := kodan.LandsatMission(epoch)
	if err != nil {
		log.Fatal(err)
	}

	cfg := kodan.DemoTransformConfig(2023)
	cfg.Frames = *frames
	fmt.Println("running the one-time transformation...")
	ctx := context.Background()
	sys, err := kodan.NewSystemCtx(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	app, err := sys.TransformVariantCtx(ctx, *appIdx, false)
	if err != nil {
		log.Fatal(err)
	}
	logic, est := app.SelectionLogic(m.Deployment(target))
	prof, err := app.ProfileFor(logic.Tiling)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selection logic: %v on %v, expected frame time %.1f s\n\n",
		logic.Tiling, target, est.FrameTime.Seconds())

	fly := func(name string, sel kodan.Selection, p policy.TilingProfile, engine bool) *mission.Result {
		res, err := mission.Run(mission.Config{
			Epoch:      epoch,
			Days:       *days,
			Arch:       app.Arch(),
			Target:     target,
			Profile:    p,
			Selection:  sel,
			UseEngine:  engine,
			FillIdle:   true,
			BufferBits: *bufferGB * 8e9,
			Seed:       2023,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s DVD %.3f  recovery %5.1f%%  missed %6d/%6d  dropped %6.1f GB  peak queue %7.1f GB\n",
			name, res.DVD(), 100*res.Ledger.Recovery(),
			res.FramesMissed, res.FramesCaptured, res.DroppedBits/8e9, res.PeakQueueBits/8e9)
		return res
	}

	kod := fly("kodan", logic, prof, true)

	fineProf, err := app.ProfileFor(kodan.Tiling{PerSide: 11})
	if err != nil {
		log.Fatal(err)
	}
	fly("direct deploy", policy.DirectSelection(fineProf), fineProf, false)

	bent := make([]kodan.Action, len(prof.Contexts))
	for i := range bent {
		bent[i] = kodan.Downlink
	}
	fly("bent pipe", kodan.Selection{Tiling: prof.Tiling, Actions: bent}, prof, false)

	// Energy feasibility on a 3U bus.
	radioDuty := kod.ContactTime.Seconds() / (float64(*days) * 86400)
	budget, err := power.Evaluate(power.ThreeUBus(), orbit.Landsat8(epoch), target, est,
		m.FrameDeadline, radioDuty)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nenergy budget (3U cubesat bus): generation %.1f W, load %.1f W, margin %+.1f W — feasible: %v\n",
		budget.GenerationW, budget.LoadW, budget.MarginW, budget.Feasible())
	fmt.Printf("compute duty cycle %.0f%%, %.0f J per frame\n",
		100*budget.ComputeDutyCycle, budget.EnergyPerFrameJ)
}
