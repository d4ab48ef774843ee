// Constellation: a sizing study over the space and ground segments. Sweeps
// the constellation population and reports observation growth, downlink
// saturation, and daily grid coverage — the phenomena behind the paper's
// Figures 2 and 3 — and then shows how Kodan shrinks the population needed
// for full ground-track processing coverage (Figure 11).
//
// Run with:
//
//	go run ./examples/constellation
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"kodan"
	"kodan/internal/policy"
	"kodan/internal/sim"
	"kodan/internal/wrs"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	epoch := kodan.ReferenceEpoch

	fmt.Println("constellation sweep (one day per point):")
	fmt.Printf("%5s %10s %10s %10s %10s\n", "Sats", "Observed", "Downlink", "DownFrac", "Coverage")
	grid := wrs.Landsat8Grid()
	for _, n := range []int{1, 4, 8, 16, 32} {
		res, err := sim.RunCtx(ctx, sim.Landsat8Config(epoch, 24*time.Hour, n))
		if err != nil {
			log.Fatal(err)
		}
		obs := res.FramesObserved()
		cap := res.FrameCapacity()
		fmt.Printf("%5d %10d %10.0f %9.1f%% %9.1f%%\n",
			n, obs, cap, 100*cap/float64(obs),
			100*float64(res.UniqueScenes())/float64(grid.TotalScenes()))
	}
	fmt.Println("\nnote the downlink fraction falling as the segment saturates:")
	fmt.Println("added satellites observe more but cannot downlink more (Figure 2).")

	// Kodan's effect on constellation sizing: how many satellites does
	// continuous ground-track processing take?
	mission, err := kodan.LandsatMission(epoch)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := kodan.NewSystemCtx(ctx, kodan.DemoTransformConfig(11))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nsatellites for full ground-track coverage on %v (deadline %.1f s):\n",
		kodan.Orin15W, mission.FrameDeadline.Seconds())
	fmt.Printf("%-6s %12s %12s %10s\n", "App", "DirectSats", "KodanSats", "Reduction")
	d := mission.Deployment(kodan.Orin15W)
	for _, idx := range []int{1, 4, 7} {
		app, err := sys.TransformVariantCtx(ctx, idx, false)
		if err != nil {
			log.Fatal(err)
		}
		direct, err := app.DirectDeploy(d, kodan.Tiling{PerSide: 11})
		if err != nil {
			log.Fatal(err)
		}
		_, kodanEst := app.SelectionLogic(d)
		ds := policy.SatellitesForCoverage(direct.FrameTime, mission.FrameDeadline)
		ks := policy.SatellitesForCoverage(kodanEst.FrameTime, mission.FrameDeadline)
		fmt.Printf("App %-2d %12d %12d %9.1fx\n", idx, ds, ks, float64(ds)/float64(ks))
	}
}
