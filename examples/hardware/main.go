// Hardware: per-target adaptation study. Transforms one application once
// and generates selection logics for all three hardware targets, showing
// how Kodan trades precision for execution time as compute shrinks: on the
// 1070 Ti it keeps precise fine tilings and runs models everywhere; on the
// Orin it tiles coarsely and elides near-pure contexts to meet the frame
// deadline (the behavior behind Figures 8, 9, 14, and 15).
//
// Run with:
//
//	go run ./examples/hardware
package main

import (
	"context"
	"fmt"
	"log"

	"kodan"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	mission, err := kodan.LandsatMission(kodan.ReferenceEpoch)
	if err != nil {
		log.Fatal(err)
	}

	sys, err := kodan.NewSystemCtx(ctx, kodan.DemoTransformConfig(5))
	if err != nil {
		log.Fatal(err)
	}
	app, err := sys.TransformVariantCtx(ctx, 5, false) // resnet50-upernet
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application: %v\n", app.Arch())
	fmt.Printf("frame deadline: %.1f s\n\n", mission.FrameDeadline.Seconds())

	for _, target := range kodan.Targets() {
		d := mission.Deployment(target)
		logic, est := app.SelectionLogic(d)
		bent := app.BentPipe(d)

		elided := 0
		for _, a := range logic.Actions {
			if a == kodan.Discard || a == kodan.Downlink {
				elided++
			}
		}
		fmt.Printf("%v:\n", target)
		fmt.Printf("  per-tile model time: %.0f ms\n", app.Arch().PerTileMs[target])
		fmt.Printf("  chosen tiling:       %v\n", logic.Tiling)
		fmt.Printf("  elided contexts:     %d of %d\n", elided, len(logic.Actions))
		fmt.Printf("  frame time:          %.1f s (deadline met: %v)\n",
			est.FrameTime.Seconds(), est.FrameTime <= mission.FrameDeadline)
		fmt.Printf("  DVD:                 %.3f (%+.0f%% over bent pipe)\n\n",
			est.DVD, 100*(est.DVD/bent.DVD-1))
	}
}
