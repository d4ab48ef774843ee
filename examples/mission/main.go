// Mission: a time-resolved multi-day deployment. Where the other examples
// use the steady-state estimator, this one runs the chronological event
// loop of internal/mission — captures every ~24 s, contact windows from
// the simulated ground segment, a busy/idle processor, and a bounded
// onboard buffer — and compares Kodan against the direct-deploy baseline
// on the same timeline, including queue transients the analytic model
// cannot see.
//
// Run with:
//
//	go run ./examples/mission
package main

import (
	"context"
	"fmt"
	"log"

	"kodan"
	"kodan/internal/mission"
	"kodan/internal/policy"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	epoch := kodan.ReferenceEpoch

	sys, err := kodan.NewSystemCtx(ctx, kodan.DemoTransformConfig(3))
	if err != nil {
		log.Fatal(err)
	}
	app, err := sys.TransformVariantCtx(ctx, 4, false)
	if err != nil {
		log.Fatal(err)
	}
	m, err := kodan.LandsatMission(epoch)
	if err != nil {
		log.Fatal(err)
	}
	logic, est := app.SelectionLogic(m.Deployment(kodan.Orin15W))
	prof, err := app.ProfileFor(logic.Tiling)
	if err != nil {
		log.Fatal(err)
	}

	const days = 3
	fmt.Printf("flying %v on %v for %d days (tiling %v, expected frame time %.1f s)\n\n",
		app.Arch(), kodan.Orin15W, days, logic.Tiling, est.FrameTime.Seconds())

	run := func(name string, sel kodan.Selection, p policy.TilingProfile, engine bool, buffer float64) *mission.Result {
		res, err := mission.Run(mission.Config{
			Epoch:      epoch,
			Days:       days,
			Arch:       app.Arch(),
			Target:     kodan.Orin15W,
			Profile:    p,
			Selection:  sel,
			UseEngine:  engine,
			FillIdle:   true,
			BufferBits: buffer,
			Seed:       9,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s DVD %.3f  recovery %4.1f%%  missed %5d/%5d frames  peak queue %6.1f GB\n",
			name, res.DVD(), 100*res.Ledger.Recovery(), res.FramesMissed, res.FramesCaptured,
			res.PeakQueueBits/8e9)
		return res
	}

	// Kodan with an unlimited buffer, then with a realistic 256 GB SSD.
	run("kodan (no buffer cap)", logic, prof, true, 0)
	run("kodan (256 GB SSD)", logic, prof, true, 256*8e9)

	// Direct deploy at the fine tiling on the same timeline.
	fineProf, err := app.ProfileFor(kodan.Tiling{PerSide: 11})
	if err != nil {
		log.Fatal(err)
	}
	direct := policy.DirectSelection(fineProf)
	run("direct deploy", direct, fineProf, false, 0)

	// Bent pipe: downlink everything raw.
	bentActions := make([]kodan.Action, len(prof.Contexts))
	for i := range bentActions {
		bentActions[i] = kodan.Downlink
	}
	run("bent pipe", kodan.Selection{Tiling: prof.Tiling, Actions: bentActions}, prof, false, 0)
}
