// Cloudfilter: the paper's motivating application, end to end. A satellite
// on the Landsat 8 orbit captures frames over the synthetic world; the
// Kodan on-orbit runtime splits each frame into tiles, classifies every
// tile with the context engine, and discards / downlinks / filters each
// one under the generated selection logic. The example processes a sample
// of real frames through the real models and extrapolates the mission
// ledger, comparing against the bent pipe.
//
// Run with:
//
//	go run ./examples/cloudfilter
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"kodan"
	"kodan/internal/dataset"
	"kodan/internal/deploy"
	"kodan/internal/imagery"
	"kodan/internal/tiling"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()
	mission, err := kodan.LandsatMission(kodan.ReferenceEpoch)
	if err != nil {
		log.Fatal(err)
	}

	cfg := kodan.DemoTransformConfig(7)
	sys, err := kodan.NewSystemCtx(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	app, err := sys.TransformVariantCtx(ctx, 7, false) // the heaviest application
	if err != nil {
		log.Fatal(err)
	}

	deployment := mission.Deployment(kodan.Orin15W)
	logic, est := app.SelectionLogic(deployment)
	runtime, err := app.Runtime(logic, kodan.Orin15W, mission.FrameBits)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed App 7 to the Orin 15W: tiling %v, expected frame time %.1f s\n",
		logic.Tiling, est.FrameTime.Seconds())

	// Capture a fresh day of frames (unseen world regions) and process a
	// sample through the real runtime.
	dcfg := dataset.DefaultConfig(991, tiling.Tiling{PerSide: logic.Tiling.PerSide})
	dcfg.Frames = 40
	dcfg.TileRes = cfg.TileRes
	ds, err := dataset.Generate(dcfg)
	if err != nil {
		log.Fatal(err)
	}
	frames := framesOf(ds, logic.Tiling.Tiles())

	rng := kodan.NewRand(1)
	var outcomes []deploy.FrameOutcome
	counts := map[kodan.Action]int{}
	var totalTime time.Duration
	for _, frame := range frames {
		out := runtime.ProcessFrame(frame, rng)
		outcomes = append(outcomes, out)
		totalTime += out.Time
		for _, tile := range out.Tiles {
			counts[tile.Action]++
		}
	}
	fmt.Printf("\nprocessed %d frames (%d tiles): avg %.1f s/frame (deadline %.1f s)\n",
		len(frames), len(frames)*logic.Tiling.Tiles(),
		totalTime.Seconds()/float64(len(frames)), mission.FrameDeadline.Seconds())
	for _, a := range []kodan.Action{kodan.Discard, kodan.Downlink, kodan.Specialized, kodan.Generic} {
		if counts[a] > 0 {
			fmt.Printf("  %-12v %5d tiles\n", a, counts[a])
		}
	}

	// Extrapolate one mission day and compare with the bent pipe.
	day := deploy.Deployment{
		FramesObserved: mission.FramesPerDay,
		CapacityBits:   mission.CapacityFrac * mission.FramesPerDay * mission.FrameBits,
		FrameBits:      mission.FrameBits,
		Deadline:       mission.FrameDeadline,
		FillIdle:       true,
	}
	kodanLedger := day.Ledger(outcomes)

	var bentOutcomes []deploy.FrameOutcome
	for _, frame := range frames {
		bentOutcomes = append(bentOutcomes, deploy.BentPipeFrame(frame, runtime.TileBits))
	}
	bentLedger := day.Ledger(bentOutcomes)

	fmt.Printf("\none mission day (measured on the processed sample):\n")
	fmt.Printf("  %-10s DVD %.3f  purity %.3f  high-value recovery %.1f%%\n",
		"bent pipe", bentLedger.DVD(), bentLedger.Purity(), 100*bentLedger.Recovery())
	fmt.Printf("  %-10s DVD %.3f  purity %.3f  high-value recovery %.1f%%\n",
		"kodan", kodanLedger.DVD(), kodanLedger.Purity(), 100*kodanLedger.Recovery())
	fmt.Printf("  improvement: %+.0f%% data value density\n",
		100*(kodanLedger.DVD()/bentLedger.DVD()-1))
}

// framesOf groups a dataset's tiles back into frames.
func framesOf(ds *dataset.Dataset, tilesPerFrame int) [][]*imagery.Tile {
	byFrame := map[int][]*imagery.Tile{}
	order := []int{}
	for _, s := range ds.Samples {
		if len(byFrame[s.Frame]) == 0 {
			order = append(order, s.Frame)
		}
		byFrame[s.Frame] = append(byFrame[s.Frame], s.Tile)
	}
	var frames [][]*imagery.Tile
	for _, f := range order {
		if len(byFrame[f]) == tilesPerFrame {
			frames = append(frames, byFrame[f])
		}
	}
	return frames
}
