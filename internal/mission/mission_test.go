package mission

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/link"
	"kodan/internal/nn"
	"kodan/internal/orbit"
	"kodan/internal/policy"
	"kodan/internal/sense"
	"kodan/internal/station"
	"kodan/internal/tiling"
	"kodan/internal/value"
	"kodan/internal/wrs"
	"kodan/internal/xrand"
)

var epoch = time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)

// conf builds a confusion matrix from rates over a nominal population.
func conf(tpr, fpr, baseRate float64) nn.Confusion {
	const n = 10000
	pos := int(baseRate * n)
	neg := n - pos
	tp := int(tpr * float64(pos))
	fp := int(fpr * float64(neg))
	return nn.Confusion{TP: tp, FN: pos - tp, FP: fp, TN: neg - fp}
}

// testProfile mirrors the policy tests' three-context world.
func testProfile(perSide int) policy.TilingProfile {
	return policy.TilingProfile{
		Tiling: tiling.Tiling{PerSide: perSide},
		Contexts: []policy.ContextProfile{
			{TileFrac: 0.30, HighValueFrac: 0.92, Generic: conf(0.90, 0.30, 0.92), Special: conf(0.95, 0.20, 0.92), Merged: conf(0.93, 0.25, 0.92)},
			{TileFrac: 0.35, HighValueFrac: 0.06, Generic: conf(0.80, 0.15, 0.06), Special: conf(0.90, 0.05, 0.06), Merged: conf(0.85, 0.08, 0.06)},
			{TileFrac: 0.35, HighValueFrac: 0.50, Generic: conf(0.85, 0.25, 0.50), Special: conf(0.92, 0.10, 0.50), Merged: conf(0.90, 0.15, 0.50)},
		},
	}
}

// kodanConfig builds a Kodan-style mission: App 4 on the Orin, downlink the
// pure-high context, discard the pure-low one, filter the mixed one.
func kodanConfig(days int) Config {
	prof := testProfile(3)
	return Config{
		Epoch:  epoch,
		Days:   days,
		Arch:   app.App(4),
		Target: hw.Orin15W,

		Profile: prof,
		Selection: policy.Selection{
			Tiling:  prof.Tiling,
			Actions: []policy.Action{policy.Downlink, policy.Discard, policy.Specialized},
		},
		UseEngine: true,
		FillIdle:  true,
		Seed:      7,
	}
}

func TestRunBasics(t *testing.T) {
	res, err := Run(kodanConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// ~3600 frames captured per day.
	if res.FramesCaptured < 3300 || res.FramesCaptured > 3900 {
		t.Fatalf("captured = %d", res.FramesCaptured)
	}
	if res.FramesProcessed+res.FramesMissed != res.FramesCaptured {
		t.Fatal("frame accounting inconsistent")
	}
	// This selection meets the deadline easily: no missed frames.
	if res.FramesMissed != 0 {
		t.Fatalf("missed %d frames", res.FramesMissed)
	}
	// The downlink is saturated and value-dense.
	if res.Ledger.Utilization() < 0.95 {
		t.Fatalf("utilization = %.3f", res.Ledger.Utilization())
	}
	if res.DVD() < 0.8 {
		t.Fatalf("DVD = %.3f", res.DVD())
	}
}

func TestMissionMatchesAnalyticSteadyState(t *testing.T) {
	// The time-resolved mission and the analytic estimator must agree on
	// DVD in the long run (the mission adds only transient effects).
	cfg := kodanConfig(3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The analytic model needs the same capacity fraction the mission saw.
	env := policy.Env{
		App:          cfg.Arch,
		Target:       cfg.Target,
		Deadline:     24 * time.Second,
		CapacityFrac: res.Ledger.CapacityBits / res.Ledger.ObservedBits,
		FillIdle:     true,
		UseEngine:    true,
	}
	est := policy.Evaluate(cfg.Selection, cfg.Profile, env)
	if diff := math.Abs(est.DVD - res.DVD()); diff > 0.03 {
		t.Fatalf("analytic DVD %.3f vs mission DVD %.3f (diff %.3f)", est.DVD, res.DVD(), diff)
	}
}

func TestBottleneckedMissionMissesFrames(t *testing.T) {
	// All-specialized at 121 tiles on the Orin takes ~4 minutes per frame:
	// most captures arrive while the processor is busy.
	prof := testProfile(11)
	cfg := kodanConfig(1)
	cfg.Profile = prof
	cfg.Selection = policy.Selection{
		Tiling:  prof.Tiling,
		Actions: []policy.Action{policy.Specialized, policy.Specialized, policy.Specialized},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(res.FramesMissed) / float64(res.FramesCaptured); frac < 0.8 {
		t.Fatalf("missed fraction = %.2f, want deep bottleneck", frac)
	}
	// With raw filler the link still runs, at bent-pipe-like density.
	if res.Ledger.Utilization() < 0.9 {
		t.Fatalf("utilization = %.3f", res.Ledger.Utilization())
	}
	if res.DVD() > 0.75 {
		t.Fatalf("bottlenecked DVD = %.3f, want near bent pipe", res.DVD())
	}
}

func TestBufferOverflowDropsSparse(t *testing.T) {
	cfg := kodanConfig(1)
	cfg.BufferBits = 5 * cfg.Profile.Contexts[0].TileFrac * 8e9 // a few frames
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedBits == 0 {
		t.Fatal("tiny buffer never overflowed")
	}
	if res.PeakQueueBits > cfg.BufferBits*1.0001 {
		t.Fatalf("peak queue %.0f exceeded buffer %.0f", res.PeakQueueBits, cfg.BufferBits)
	}
	// Value accounting stays consistent.
	if res.Ledger.HighValueBits > res.Ledger.DownlinkedBits {
		t.Fatal("value exceeds downlinked bits")
	}
}

func TestUnlimitedBufferNeverDrops(t *testing.T) {
	res, err := Run(kodanConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedBits != 0 {
		t.Fatalf("unlimited buffer dropped %.0f bits", res.DroppedBits)
	}
}

func TestMissionDeterministic(t *testing.T) {
	a, err := Run(kodanConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(kodanConfig(1))
	if a.DVD() != b.DVD() || a.FramesProcessed != b.FramesProcessed || a.PeakQueueBits != b.PeakQueueBits {
		t.Fatal("mission not deterministic")
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	cfg := kodanConfig(0)
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero days accepted")
	}
	cfg = kodanConfig(1)
	cfg.Selection.Actions = cfg.Selection.Actions[:1]
	if _, err := Run(cfg); err == nil {
		t.Fatal("mismatched actions accepted")
	}
	cfg = kodanConfig(1)
	cfg.Selection.Tiling = tiling.Tiling{PerSide: 5}
	if _, err := Run(cfg); err == nil {
		t.Fatal("mismatched tiling accepted")
	}
	// The loop models no ground deferral: a Deferred context would
	// otherwise vanish without a trace.
	cfg = kodanConfig(1)
	cfg.Selection.Actions = []policy.Action{policy.Downlink, policy.Deferred, policy.Specialized}
	if _, err := Run(cfg); err == nil {
		t.Fatal("deferred action accepted")
	}
}

func TestQueueMechanics(t *testing.T) {
	q := newQueue(10)
	q.push(value.Chunk{Bits: 6, ValueBits: 3}, true) // density 0.5 — the victim
	q.push(value.Chunk{Bits: 6, ValueBits: 6}, true) // density 1.0 — preserved
	if dropped := q.enforce(); math.Abs(dropped-2) > 1e-9 {
		t.Fatalf("dropped = %v, want 2 (least dense first)", dropped)
	}
	// The sparse chunk was trimmed to 4 bits with proportional value 2.
	bits, val := q.drain(100)
	if math.Abs(bits-10) > 1e-9 || math.Abs(val-8) > 1e-9 {
		t.Fatalf("drain = %v/%v, want 10/8", bits, val)
	}
	// Partial drain splits the head.
	q2 := newQueue(0)
	q2.push(value.Chunk{Bits: 10, ValueBits: 5}, true)
	b, v := q2.drain(4)
	if b != 4 || math.Abs(v-2) > 1e-9 {
		t.Fatalf("partial drain = %v/%v", b, v)
	}
	b, v = q2.drain(100)
	if math.Abs(b-6) > 1e-9 || math.Abs(v-3) > 1e-9 {
		t.Fatalf("remainder drain = %v/%v", b, v)
	}
}

// refTimeline is the mission timeline as Run wired it by hand before it
// flew sim's Landsat 8 configuration, kept verbatim: the Landsat 8 orbit,
// camera, grid, ground segment and radio, the captures and contention-
// resolved grants merged into one sorted event list. It also returns the
// summed contact time, the frame size and the radio.
func refTimeline(cfg Config) ([]event, time.Duration, float64, link.Radio, error) {
	span := time.Duration(cfg.Days) * 24 * time.Hour

	el := orbit.Landsat8(cfg.Epoch)
	camera := sense.Landsat8MS()
	radio := link.Landsat8Radio()
	im, err := sense.NewImager(camera, el, wrs.Landsat8Grid())
	if err != nil {
		return nil, 0, 0, link.Radio{}, err
	}
	captures := im.Captures(cfg.Epoch, span)

	stations := station.LandsatSegment()
	windows := make([][][]station.Window, len(stations))
	for si, ws := range station.ContactWindows(stations, el, cfg.Epoch, span) {
		windows[si] = [][]station.Window{ws}
	}
	grants := link.Allocate(link.Problem{
		Start: cfg.Epoch, Span: span, Windows: windows,
	})

	// Merge captures and grants into one chronological timeline.
	events := make([]event, 0, len(captures)+len(grants))
	for _, c := range captures {
		events = append(events, event{at: c.Time, capture: true})
	}
	var contact time.Duration
	for _, g := range grants {
		events = append(events, event{at: g.Start, grant: g})
		contact += g.Dur
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at.Before(events[j].at) })
	return events, contact, camera.FrameBits(), radio, nil
}

// refProcessFrame is processFrame as it stood before it read
// policy.ContextProfile.Yield, kept verbatim.
func refProcessFrame(cfg Config, contexts []int, tileBits float64) (time.Duration, []value.Chunk, []bool) {
	var ms float64
	var chunks []value.Chunk
	var assessed []bool
	engineMs := cfg.Target.ContextEngineMsPerTile()
	modelMs := cfg.Arch.PerTileMs[cfg.Target]
	for _, c := range contexts {
		if cfg.UseEngine {
			ms += engineMs
		}
		cp := cfg.Profile.Contexts[c]
		switch cfg.Selection.Actions[c] {
		case policy.Discard:
		case policy.Downlink:
			chunks = append(chunks, value.Chunk{Bits: tileBits, ValueBits: tileBits * cp.HighValueFrac})
			// A context-engine verdict is a value estimate; a bent pipe
			// (no engine) downlinks blind.
			assessed = append(assessed, cfg.UseEngine)
		default: // Specialized, Merged, Generic
			conf := cp.Special
			switch cfg.Selection.Actions[c] {
			case policy.Merged:
				conf = cp.Merged
			case policy.Generic:
				conf = cp.Generic
			}
			ms += modelMs
			total := float64(conf.Total())
			if total == 0 {
				continue
			}
			kept := conf.PositiveRate()
			tpFrac := float64(conf.TP) / total
			if kept > 0 {
				chunks = append(chunks, value.Chunk{Bits: tileBits * kept, ValueBits: tileBits * tpFrac})
				assessed = append(assessed, true)
			}
		}
	}
	return time.Duration(ms * float64(time.Millisecond)), chunks, assessed
}

// TestTimelineMatchesHandWired pins the sim-built timeline to the
// hand-wired one event for event, at several epochs and spans.
func TestTimelineMatchesHandWired(t *testing.T) {
	for _, ep := range []time.Time{
		epoch,
		time.Date(2021, 7, 1, 6, 30, 0, 0, time.UTC),
		time.Date(2024, 12, 31, 23, 0, 0, 0, time.UTC),
	} {
		for _, days := range []int{1, 3} {
			cfg := kodanConfig(days)
			cfg.Epoch = ep
			wantEv, wantContact, wantFrameBits, wantRadio, err := refTimeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotEv, platform, err := timeline(ep, time.Duration(days)*24*time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if fb := platform.Camera.FrameBits(); fb != wantFrameBits || platform.Radio != wantRadio {
				t.Fatalf("%v +%dd: platform frame bits %v radio %v, want %v %v",
					ep, days, fb, platform.Radio, wantFrameBits, wantRadio)
			}
			if len(gotEv) != len(wantEv) {
				t.Fatalf("%v +%dd: %d events, want %d", ep, days, len(gotEv), len(wantEv))
			}
			var contact time.Duration
			for i := range wantEv {
				if gotEv[i] != wantEv[i] {
					t.Fatalf("%v +%dd: event %d = %+v, want %+v", ep, days, i, gotEv[i], wantEv[i])
				}
				contact += gotEv[i].grant.Dur
			}
			if contact != wantContact {
				t.Fatalf("%v +%dd: contact %v, want %v", ep, days, contact, wantContact)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.ContactTime != wantContact {
				t.Fatalf("%v +%dd: Result.ContactTime %v, want %v", ep, days, res.ContactTime, wantContact)
			}
		}
	}
}

// TestProcessFrameMatchesReference pins processFrame to its pre-Yield form
// over random profiles (empty confusions included), every non-deferred
// action and random frames.
func TestProcessFrameMatchesReference(t *testing.T) {
	rng := xrand.New(3)
	actions := []policy.Action{policy.Discard, policy.Downlink, policy.Specialized, policy.Merged, policy.Generic}
	fill := func() nn.Confusion {
		switch rng.Intn(5) {
		case 0:
			return nn.Confusion{} // no validation tile landed here
		case 1:
			return nn.Confusion{TN: rng.Intn(50), FN: rng.Intn(50)} // keeps nothing
		}
		return nn.Confusion{TP: rng.Intn(50), FP: rng.Intn(50), TN: rng.Intn(50), FN: rng.Intn(50)}
	}
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(6)
		prof := policy.TilingProfile{Tiling: tiling.Tiling{PerSide: 1 + rng.Intn(6)}}
		for c := 0; c < k; c++ {
			prof.Contexts = append(prof.Contexts, policy.ContextProfile{
				TileFrac: rng.Float64(), HighValueFrac: rng.Float64(),
				Generic: fill(), Special: fill(), Merged: fill(),
			})
		}
		cfg := Config{
			Arch:      app.App(1 + rng.Intn(7)),
			Target:    hw.Targets()[rng.Intn(3)],
			Profile:   prof,
			Selection: policy.Selection{Tiling: prof.Tiling, Actions: make([]policy.Action, k)},
			UseEngine: rng.Intn(2) == 0,
		}
		tileBits := rng.Range(1, 1e9)
		for probe := 0; probe < 20; probe++ {
			for c := range cfg.Selection.Actions {
				cfg.Selection.Actions[c] = actions[rng.Intn(len(actions))]
			}
			contexts := make([]int, prof.Tiling.Tiles())
			for i := range contexts {
				contexts[i] = rng.Intn(k)
			}
			wantMs, wantChunks, wantAssessed := refProcessFrame(cfg, contexts, tileBits)
			gotMs, gotChunks, gotAssessed := processFrame(cfg, contexts, tileBits)
			if gotMs != wantMs || !slices.Equal(gotChunks, wantChunks) || !slices.Equal(gotAssessed, wantAssessed) {
				t.Fatalf("trial %d probe %d: actions %v\ngot  %v %v %v\nwant %v %v %v", trial, probe,
					cfg.Selection.Actions, gotMs, gotChunks, gotAssessed, wantMs, wantChunks, wantAssessed)
			}
		}
	}
}

// TestLedgerConservation checks the mission ledger over seeds, buffer
// bounds, idle filling and the context engine, for a Kodan selection, a
// bent pipe and a compute-bottlenecked selection: every capture is
// processed or missed, nothing downlinks past capacity or carries more
// value than bits, no bit appears from nowhere (downlinked, dropped and
// still-queued bits never exceed what was observed, and equal it for the
// bent pipe, which keeps every bit), and a bounded buffer is never
// exceeded.
func TestLedgerConservation(t *testing.T) {
	frameBits := sense.Landsat8MS().FrameBits()
	selections := []struct {
		name  string
		prof  policy.TilingProfile
		acts  []policy.Action
		seeds []uint64
	}{
		{"kodan", testProfile(3), []policy.Action{policy.Downlink, policy.Discard, policy.Specialized}, []uint64{1, 2, 3}},
		{"bent", testProfile(3), []policy.Action{policy.Downlink, policy.Downlink, policy.Downlink}, []uint64{1, 2, 3}},
		// One seed suffices to exercise missed frames; the queue's victim
		// scan makes these runs the slowest.
		{"bottleneck", testProfile(5), []policy.Action{policy.Specialized, policy.Merged, policy.Generic}, []uint64{1}},
	}
	within := func(got, want float64) bool { return got <= want*(1+1e-9) }
	for _, sel := range selections {
		for _, seed := range sel.seeds {
			for _, buffer := range []float64{0, 2 * frameBits, 256 * 8e9} {
				for _, fill := range []bool{true, false} {
					for _, engine := range []bool{true, false} {
						cfg := kodanConfig(1)
						cfg.Profile = sel.prof
						cfg.Selection = policy.Selection{Tiling: sel.prof.Tiling, Actions: sel.acts}
						cfg.Seed, cfg.BufferBits, cfg.FillIdle, cfg.UseEngine = seed, buffer, fill, engine
						res, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%s seed %d buffer %g fill %v engine %v", sel.name, seed, buffer, fill, engine)
						led := res.Ledger
						if res.FramesProcessed+res.FramesMissed != res.FramesCaptured {
							t.Errorf("%s: processed %d + missed %d != captured %d", name,
								res.FramesProcessed, res.FramesMissed, res.FramesCaptured)
						}
						if !within(led.DownlinkedBits, led.CapacityBits) {
							t.Errorf("%s: downlinked %v > capacity %v", name, led.DownlinkedBits, led.CapacityBits)
						}
						if !within(led.HighValueBits, led.DownlinkedBits) {
							t.Errorf("%s: high-value %v > downlinked %v", name, led.HighValueBits, led.DownlinkedBits)
						}
						out := led.DownlinkedBits + res.DroppedBits + res.QueuedBits
						if !within(out, led.ObservedBits) {
							t.Errorf("%s: downlinked+dropped+queued %v > observed %v", name, out, led.ObservedBits)
						}
						if sel.name == "bent" && !engine && fill &&
							math.Abs(out-led.ObservedBits) > 1e-9*led.ObservedBits {
							t.Errorf("%s: bent pipe downlinked+dropped+queued %v != observed %v", name, out, led.ObservedBits)
						}
						if buffer > 0 && !within(res.PeakQueueBits, buffer) {
							t.Errorf("%s: peak queue %v > buffer %v", name, res.PeakQueueBits, buffer)
						}
					}
				}
			}
		}
	}
}
