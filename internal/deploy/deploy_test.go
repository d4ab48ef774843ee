package deploy

import (
	"math"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/ctxengine"
	"kodan/internal/dataset"
	"kodan/internal/hw"
	"kodan/internal/imagery"
	"kodan/internal/policy"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// fixture builds a small runtime over a 3x3 tiling with App 4 on the Orin,
// plus a runtime whose logic filters every tile with the generic model
// (no elision, the direct-deployment workload).
type fixture struct {
	runtime *Runtime
	direct  *Runtime
	frames  [][]*imagery.Tile
}

func buildFixture(t *testing.T) fixture {
	t.Helper()
	tl := tiling.Tiling{PerSide: 3}
	cfg := dataset.DefaultConfig(2023, tl)
	cfg.Frames = 80
	cfg.TileRes = 16
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, val := ds.Split(0.25, xrand.New(7))
	ctx, err := ctxengine.Build(t.Context(), train, ctxengine.DefaultConfig(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	data := app.PrepareSuiteData(train, val, ctx)
	suite, err := app.BuildSuiteData(t.Context(), app.App(4), tl, data, ctx, app.DefaultTrainOptions(), xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}

	// Simple hand-built logic: downlink pure-high contexts, discard
	// pure-low, filter the rest.
	actions := make([]policy.Action, ctx.K)
	for c, s := range ctx.Stats {
		switch {
		case s.HighValueFrac > 0.8:
			actions[c] = policy.Downlink
		case s.HighValueFrac < 0.2:
			actions[c] = policy.Discard
		default:
			actions[c] = policy.Specialized
		}
	}
	rt := &Runtime{
		Engine:   ctx,
		Suite:    suite,
		Logic:    policy.Selection{Tiling: tl, Actions: actions},
		Target:   hw.Orin15W,
		TileBits: 1,
	}
	generic := make([]policy.Action, ctx.K)
	for c := range generic {
		generic[c] = policy.Generic
	}
	dir := &Runtime{
		Engine:   ctx,
		Suite:    suite,
		Logic:    policy.Selection{Tiling: tl, Actions: generic},
		Target:   hw.Orin15W,
		TileBits: 1,
	}

	// Group validation tiles back into frames.
	byFrame := map[int][]*imagery.Tile{}
	for _, s := range val.Samples {
		byFrame[s.Frame] = append(byFrame[s.Frame], s.Tile)
	}
	var frames [][]*imagery.Tile
	for _, tiles := range byFrame {
		if len(tiles) == tl.Tiles() {
			frames = append(frames, tiles)
		}
	}
	return fixture{runtime: rt, direct: dir, frames: frames}
}

func TestRuntimeProcessFrame(t *testing.T) {
	f := buildFixture(t)
	out := f.runtime.ProcessFrame(f.frames[0], xrand.New(1))
	if len(out.Tiles) != 9 {
		t.Fatalf("tiles = %d", len(out.Tiles))
	}
	if out.ObservedBits != 9 {
		t.Fatalf("observed bits = %v", out.ObservedBits)
	}
	for _, to := range out.Tiles {
		if to.Chunk.ValueBits > to.Chunk.Bits+1e-12 {
			t.Fatal("chunk value exceeds bits")
		}
		if to.Context < 0 || to.Context >= f.runtime.Engine.Contexts() {
			t.Fatalf("context %d", to.Context)
		}
		switch to.Action {
		case policy.Discard:
			if to.Chunk.Bits != 0 {
				t.Fatal("discarded tile queued data")
			}
		case policy.Downlink:
			if to.Chunk.Bits != f.runtime.TileBits {
				t.Fatal("downlinked tile not whole")
			}
			if to.Confusion.Total() != 0 {
				t.Fatal("downlinked tile ran a model")
			}
		case policy.Specialized:
			if to.Confusion.Total() == 0 {
				t.Fatal("filtered tile has no confusion")
			}
		}
	}
}

func TestRuntimeElisionSavesTime(t *testing.T) {
	f := buildFixture(t)
	var kodanTime, directTime time.Duration
	for _, frame := range f.frames {
		kodanTime += f.runtime.ProcessFrame(frame, xrand.New(2)).Time
		directTime += f.direct.ProcessFrame(frame, xrand.New(2)).Time
	}
	if kodanTime >= directTime {
		t.Fatalf("Kodan (%v) not faster than direct (%v)", kodanTime, directTime)
	}
}

func TestRuntimeImprovesQueueDensity(t *testing.T) {
	f := buildFixture(t)
	density := func(outs []FrameOutcome) float64 {
		var bits, val float64
		for _, o := range outs {
			for _, c := range o.Chunks() {
				bits += c.Bits
				val += c.ValueBits
			}
		}
		if bits == 0 {
			return 0
		}
		return val / bits
	}
	var kodan, bent []FrameOutcome
	for _, frame := range f.frames {
		kodan = append(kodan, f.runtime.ProcessFrame(frame, xrand.New(3)))
		bent = append(bent, BentPipeFrame(frame, 1))
	}
	kd, bd := density(kodan), density(bent)
	if kd <= bd+0.2 {
		t.Fatalf("Kodan queue density %.3f not well above bent pipe %.3f", kd, bd)
	}
}

func TestBentPipeFrameAccounting(t *testing.T) {
	f := buildFixture(t)
	out := BentPipeFrame(f.frames[0], 2)
	if out.Time != 0 {
		t.Fatal("bent pipe spent time")
	}
	if out.ObservedBits != 18 {
		t.Fatalf("observed = %v", out.ObservedBits)
	}
	var bits float64
	for _, c := range out.Chunks() {
		bits += c.Bits
	}
	if bits != 18 {
		t.Fatalf("queued = %v, want all", bits)
	}
}

func TestDeploymentLedgerSaturated(t *testing.T) {
	f := buildFixture(t)
	var outs []FrameOutcome
	for _, frame := range f.frames {
		outs = append(outs, f.runtime.ProcessFrame(frame, xrand.New(4)))
	}
	d := Deployment{
		FramesObserved: 3600,
		CapacityBits:   0.21 * 3600 * 9, // 21% of observed bits
		FrameBits:      9,
		Deadline:       24 * time.Second,
		FillIdle:       true,
	}
	led := d.Ledger(outs)
	if led.Utilization() < 0.999 {
		t.Fatalf("link not saturated: %v", led.Utilization())
	}
	// A hand-built (unoptimized) logic at test scale: demand a clear win,
	// not the optimizer's ceiling.
	if dvd := led.DVD(); dvd < 0.7 {
		t.Fatalf("Kodan DVD = %.3f", dvd)
	}
	// Bent pipe lands at prevalence.
	var bents []FrameOutcome
	for _, frame := range f.frames {
		bents = append(bents, BentPipeFrame(frame, 1))
	}
	db := d
	db.FrameBits = 9
	bl := db.Ledger(bents)
	if math.Abs(bl.DVD()-bl.ObservedHighValueBits/bl.ObservedBits) > 0.01 {
		t.Fatalf("bent pipe DVD %.3f != prevalence %.3f", bl.DVD(), bl.ObservedHighValueBits/bl.ObservedBits)
	}
	if led.DVD() < bl.DVD()*1.5 {
		t.Fatalf("Kodan DVD %.3f not well above bent pipe %.3f", led.DVD(), bl.DVD())
	}
}

func TestDeploymentBottleneckDropsFrames(t *testing.T) {
	f := buildFixture(t)
	var outs []FrameOutcome
	for _, frame := range f.frames {
		outs = append(outs, f.direct.ProcessFrame(frame, xrand.New(5)))
	}
	// Filtering every tile at 3x3 on the Orin: 9 x 1594 ms = 14.3 s (plus
	// the context engine) < 24 s, so use a tighter artificial deadline to
	// force the bottleneck.
	d := Deployment{
		FramesObserved: 3600,
		CapacityBits:   0.21 * 3600 * 9,
		FrameBits:      9,
		Deadline:       2 * time.Second,
		FillIdle:       false,
	}
	led := d.Ledger(outs)
	// Only ~2/14.3 of frames processed and no filler: the link is starved.
	if led.Utilization() > 0.5 {
		t.Fatalf("utilization = %v under deep bottleneck", led.Utilization())
	}
	withFiller := d
	withFiller.FillIdle = true
	led2 := withFiller.Ledger(outs)
	if led2.Utilization() < 0.999 {
		t.Fatalf("filler did not saturate the link: %v", led2.Utilization())
	}
	// Filler is bent-pipe quality, so purity falls toward prevalence.
	if led2.Purity() >= led.Purity() {
		t.Fatalf("filler purity %v not below filtered purity %v", led2.Purity(), led.Purity())
	}
}

func TestDeploymentEmptyOutcomes(t *testing.T) {
	d := Deployment{FramesObserved: 100, CapacityBits: 50, FrameBits: 1, Deadline: time.Second}
	led := d.Ledger(nil)
	if led.DownlinkedBits != 0 || led.CapacityBits != 50 {
		t.Fatalf("empty ledger = %+v", led)
	}
}
