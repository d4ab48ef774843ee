// Quickstart: transform one application and generate its selection logic
// for a cubesat-class target, printing what Kodan decided and why.
//
// Run with:
//
//	go run ./examples/quickstart
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

	// 1. Simulate the reference mission: the Landsat 8 orbit, camera, and
	//    ground segment. This yields the frame deadline and the fraction
	//    of observations the downlink can carry.
	mission, err := kodan.LandsatMission(kodan.ReferenceEpoch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mission: deadline %.1f s, %.0f frames/day, downlink %.0f%% of observations\n",
		mission.FrameDeadline.Seconds(), mission.FramesPerDay, 100*mission.CapacityFrac)

	// 2. One-time transformation: representative dataset, contexts, and a
	//    context engine, at the demo sizing so the example runs in seconds.
	sys, err := kodan.NewSystemCtx(ctx, kodan.DemoTransformConfig(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contexts: %d generated\n", sys.ContextCount())

	// 3. Transform Table 1's App 4 (resnet50dilated) and generate the
	//    selection logic for the Jetson Orin in its 15 W cubesat mode.
	app, err := sys.TransformVariantCtx(ctx, 4, false)
	if err != nil {
		log.Fatal(err)
	}
	deployment := mission.Deployment(kodan.Orin15W)
	logic, est := app.SelectionLogic(deployment)

	fmt.Printf("\nselection logic for %v on %v:\n", app.Arch(), kodan.Orin15W)
	fmt.Printf("  tiling: %v\n", logic.Tiling)
	for c, action := range logic.Actions {
		stats := sys.Contexts()[c]
		fmt.Printf("  %-18s (high-value %.2f) -> %v\n", stats.Name, stats.HighValueFrac, action)
	}

	// 4. Compare against the baselines.
	bent := app.BentPipe(deployment)
	direct, err := app.DirectDeploy(deployment, kodan.Tiling{PerSide: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nresults (data value density of the saturated downlink):\n")
	fmt.Printf("  bent pipe:     %.3f\n", bent.DVD)
	fmt.Printf("  direct deploy: %.3f (frame time %.0f s vs %.0f s deadline)\n",
		direct.DVD, direct.FrameTime.Seconds(), mission.FrameDeadline.Seconds())
	fmt.Printf("  kodan:         %.3f (frame time %.0f s, +%.0f%% over bent pipe)\n",
		est.DVD, est.FrameTime.Seconds(), 100*(est.DVD/bent.DVD-1))
}
