package main

import (
	"context"
	"time"

	"kodan"
	"kodan/internal/dataset"
	"kodan/internal/deploy"
	"kodan/internal/fault"
	"kodan/internal/mission"
	"kodan/internal/planner"
	"kodan/internal/policy"
	"kodan/internal/sim"
	"kodan/internal/telemetry/events"
	"kodan/internal/xrand"
)

// missionSizing sizes the mission workload. The system is built once per
// set-up from a fixed representative dataset (the deployed models do not
// change with the operations inputs); the seed drives the fault schedule,
// the mission draws, the captured frames and the model noise.
type missionSizing struct {
	sysSeed uint64
	frames  int
	tileRes int
	tilings []kodan.Tiling
	app     int
	target  kodan.Target
	// sats and simDays size the constellation simulation.
	sats, simDays int
	// missionDays is the time-resolved mission span.
	missionDays int
	// captureFrames is the fresh capture pushed through the runtimes.
	captureFrames int
}

// referenceMission is the benchmark's mission sizing: the kodan-mission
// transformation sizing, app 4 on the Orin, and step sizes chosen so the
// simulation, plan+drain, mission and capture+deploy steps each take a
// sizable share of a job.
var referenceMission = missionSizing{
	sysSeed: 2023, frames: 60, tileRes: 16,
	tilings: []kodan.Tiling{{PerSide: 3}, {PerSide: 11}},
	app:     4, target: kodan.Orin15W,
	sats: 8, simDays: 4, missionDays: 14, captureFrames: 30,
}

// missionSetup is the measured phase's prebuilt state.
type missionSetup struct {
	m    kodan.Mission
	apps [2]*kodan.Application // float, int8
	sel  kodan.Selection
	prof policy.TilingProfile
}

// bufferFrames are the deferral buffers, in frames, each plan is made for.
var bufferFrames = []float64{64, 16}

// variants names the two inference variants in apps order.
var variants = [2]string{"float", "int8"}

// newMissionSetup builds the reduced system and the float and int8
// transforms of the mission app, and generates the deployed selection.
func newMissionSetup(ctx context.Context, z missionSizing) (*missionSetup, error) {
	m, err := kodan.LandsatMission(epoch)
	if err != nil {
		return nil, err
	}
	cfg := kodan.DefaultTransformConfig(z.sysSeed)
	cfg.Frames = z.frames
	cfg.TileRes = z.tileRes
	cfg.Tilings = z.tilings
	sys, err := kodan.NewSystemCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	s := &missionSetup{m: m}
	for i := range s.apps {
		if s.apps[i], err = sys.TransformVariantCtx(ctx, z.app, i == 1); err != nil {
			return nil, err
		}
	}
	s.sel, _ = s.apps[0].SelectionLogic(m.Deployment(z.target))
	if s.prof, err = s.apps[0].ProfileFor(s.sel.Tiling); err != nil {
		return nil, err
	}
	return s, nil
}

// missionInputs are the seed-derived operations inputs of one run.
type missionInputs struct {
	sched       *fault.Schedule
	missionSeed uint64
	deploySeed  uint64
	// captureLat is the latitude band of the fresh capture; it differs from
	// the training set's, so the frames are new.
	captureLat float64
}

func newMissionInputs(seed uint64, z missionSizing) missionInputs {
	rng := xrand.New(seed ^ 0x6d697373696f6e)
	cfg := sim.Landsat8Config(epoch, time.Duration(z.simDays)*24*time.Hour, z.sats)
	names := make([]string, len(cfg.Stations))
	for i, st := range cfg.Stations {
		names[i] = st.Name
	}
	return missionInputs{
		sched: fault.Generate(fault.GenConfig{
			Seed: rng.Uint64(), Start: epoch, Span: cfg.Span,
			Intensity: 0.5, Stations: names, Sats: z.sats,
		}),
		missionSeed: rng.Uint64(),
		deploySeed:  rng.Uint64(),
		captureLat:  rng.Range(55, 69),
	}
}

// missionCounts are the work counts of one mission job.
type missionCounts struct {
	journaled      int
	deliveredBits  float64
	missionFrames  int
	tilesByOutcome map[string]int
}

// runMission is the mission workload: one operations job per iteration,
// with no training in the measured phase.
func runMission(ctx context.Context, r *run) error {
	z := referenceMission
	setupS, s, err := timeSetup(3, func() (*missionSetup, error) { return newMissionSetup(ctx, z) })
	if err != nil {
		return err
	}
	for vi, app := range s.apps {
		for _, tg := range kodan.Targets() {
			_, est := app.SelectionLogic(s.m.Deployment(tg))
			bent := app.BentPipe(s.m.Deployment(tg))
			r.checks.expect("mission.kodan_dvd_ge_bentpipe", est.DVD >= bent.DVD,
				"%s on %v: Kodan DVD %v < bent-pipe DVD %v", variants[vi], tg, est.DVD, bent.DVD)
		}
	}
	in := newMissionInputs(r.seed, z)
	var sums []string
	var counts missionCounts
	p, err := jobs(ctx, r, func(ctx context.Context, t *tracing) error {
		sum, n, err := missionJob(ctx, t, z, s, in, r.checks)
		sums = append(sums, sum)
		counts = n
		return err
	})
	if err != nil {
		return err
	}
	ops := 1 + 2*len(kodan.Targets())*len(bufferFrames)*2 + 1 + 1 + 2*(z.captureFrames+1)
	r.checks.attempted = ops * (len(p.walls) + len(p.tracedWalls))
	checkDigests(r, "mission.ledger_digest", sums, goldenMission)

	if !r.traced {
		r.set("setup_s", "s", setupS)
		_, err := p.report(r)
		return err
	}
	a, err := p.report(r)
	if err != nil {
		return err
	}
	jobs := float64(len(p.tracedWalls))
	r.set("sim.frames_captured", "count", p.on.counter("sim.frames_captured")/jobs)
	r.set("sim.contact_windows", "count", p.on.counter("sim.contact_windows")/jobs)
	r.set("sim.grants", "count", p.on.counter("sim.grants")/jobs)
	r.set("events.journaled", "count", float64(counts.journaled))
	r.set("sim.drain_delivered_bits", "bit", counts.deliveredBits)
	r.set("mission.frames", "count", float64(counts.missionFrames))
	for i, v := range variants {
		name := "deploy.frame_ms"
		if i == 1 {
			name = "deploy.frame_int8_ms"
		}
		r.set(name, "ms", 1000*median(spanDurs(a, "deploy.ProcessFrame", "variant", v)))
	}
	for _, o := range []string{"filtered", "discarded", "downlinked"} {
		r.set("deploy.tiles_"+o, "count", float64(counts.tilesByOutcome[o]))
	}
	return nil
}

// missionJob runs one operations job: the faulted, journaled constellation
// simulation; hybrid plans over the derived link for both variants on every
// target, each drained through the contact schedule; the time-resolved
// mission; and a fresh capture pushed through the float and int8 runtimes
// into a mission ledger. It returns the digest of the ledgers and drains.
func missionJob(ctx context.Context, t *tracing, z missionSizing, s *missionSetup, in missionInputs, c *checks) (string, missionCounts, error) {
	n := missionCounts{tilesByOutcome: map[string]int{}}
	d := newDigest()

	// Constellation simulation under the fault schedule, journaled.
	cfg := sim.Landsat8Config(epoch, time.Duration(z.simDays)*24*time.Hour, z.sats)
	cfg.Workers = workers
	j := events.NewJournal()
	var res *sim.Result
	err := t.call(ctx, "sim.RunCtx", func(ctx context.Context) error {
		var err error
		ctx = events.WithJournal(fault.WithInjector(ctx, fault.NewInjector(in.sched)), j)
		res, err = sim.RunCtx(ctx, cfg)
		return err
	})
	if err != nil {
		return "", n, err
	}
	n.journaled = j.Len()
	frameBits := cfg.Camera.FrameBits()
	observed := float64(res.FramesObserved())
	d.add("sim frames=%d grants=%d capacity=%d", res.FramesObserved(), len(res.Grants), res.FrameCapacity())

	// Hybrid plans over the derived link, each drained.
	link := planner.DeriveLink(res)
	for vi, app := range s.apps {
		for _, tg := range kodan.Targets() {
			for _, buffer := range bufferFrames {
				dep := s.m.Deployment(tg)
				dep.CapacityFrac = link.CapacityFrac
				env := s.m.HybridEnv().WithLink(link)
				env.BufferFrames = buffer
				var plan kodan.HybridPlan
				err := t.call(ctx, "kodan.PlanHybrid", func(context.Context) error {
					var err error
					plan, err = app.PlanHybrid(dep, env)
					return err
				})
				if err != nil {
					return "", n, err
				}
				perFrame := (plan.Eval.NowBits + plan.Eval.DeferBits) * frameBits
				var st sim.DrainStats
				t.call(ctx, "sim.DrainDeferredCtx", func(ctx context.Context) error {
					st = res.DrainDeferredCtx(ctx, perFrame, env.BufferFrames*frameBits)
					return nil
				})
				deferred := perFrame * float64(capturesWithin(res))
				got := st.DeliveredBits + st.DroppedBits + st.ResidualBits
				c.expect("mission.drain_bits_conserved", closeRel(got, deferred, 1e-9),
					"%s on %v, buffer %v: delivered+dropped+residual %v != deferred %v", variants[vi], tg, buffer, got, deferred)
				n.deliveredBits += st.DeliveredBits
				d.add("plan %s target=%d buffer=%d disp=%v util=%d drain=%d/%d/%d",
					variants[vi], int(tg), buffer, plan.Dispositions, plan.Eval.Utility,
					st.DeliveredBits, st.DroppedBits, st.ResidualBits)
			}
		}
	}

	// Time-resolved mission.
	var mres *mission.Result
	err = t.call(ctx, "mission.Run", func(context.Context) error {
		var err error
		mres, err = mission.Run(mission.Config{
			Epoch: epoch, Days: z.missionDays,
			Arch: s.apps[0].Arch(), Target: z.target,
			Profile: s.prof, Selection: s.sel,
			UseEngine: true, FillIdle: true,
			BufferBits: 256 * 8e9, Seed: in.missionSeed,
		})
		return err
	})
	if err != nil {
		return "", n, err
	}
	checkLedger(c, "mission.ledger", mres.Ledger)
	c.expect("mission.frames_accounted", mres.FramesProcessed+mres.FramesMissed == mres.FramesCaptured,
		"processed %d + missed %d != captured %d", mres.FramesProcessed, mres.FramesMissed, mres.FramesCaptured)
	n.missionFrames = mres.FramesCaptured
	l := mres.Ledger
	d.add("mission %d %d %d %d %d", l.CapacityBits, l.DownlinkedBits, l.HighValueBits, l.ObservedBits, mres.DroppedBits)

	// Fresh capture through the float and int8 runtimes.
	var ds *dataset.Dataset
	err = t.call(ctx, "dataset.Generate", func(context.Context) error {
		dc := dataset.DefaultConfig(z.sysSeed, s.sel.Tiling)
		dc.Frames = z.captureFrames
		dc.TileRes = z.tileRes
		dc.MaxLatDeg = in.captureLat
		var err error
		ds, err = dataset.Generate(dc)
		return err
	})
	if err != nil {
		return "", n, err
	}
	frames := make([][]*kodan.Tile, z.captureFrames)
	for _, smp := range ds.Samples {
		frames[smp.Frame] = append(frames[smp.Frame], smp.Tile)
	}
	var capacity float64
	for _, b := range res.DownlinkBits() {
		capacity += b
	}
	for vi, app := range s.apps {
		rt, err := app.Runtime(s.sel, z.target, frameBits)
		if err != nil {
			return "", n, err
		}
		rng := xrand.New(in.deploySeed)
		outcomes := make([]kodan.FrameOutcome, len(frames))
		for f, tiles := range frames {
			t.call(ctx, "deploy.ProcessFrame", func(context.Context) error {
				outcomes[f] = rt.ProcessFrame(tiles, rng)
				return nil
			}, "variant", variants[vi])
			for _, to := range outcomes[f].Tiles {
				n.tilesByOutcome[tileOutcome(to.Action)]++
			}
		}
		var led kodan.Ledger
		t.call(ctx, "deploy.Ledger", func(context.Context) error {
			led = deploy.Deployment{
				FramesObserved: observed, CapacityBits: capacity, FrameBits: frameBits,
				Deadline: s.m.FrameDeadline, FillIdle: true,
			}.Ledger(outcomes)
			return nil
		})
		checkLedger(c, "deploy.ledger", led)
		d.add("deploy %s %d %d %d", variants[vi], led.DownlinkedBits, led.HighValueBits, led.ObservedHighValueBits)
	}
	return d.sum(), n, nil
}

// capturesWithin counts the captures a drain replays: those at or before
// the end of the simulated span.
func capturesWithin(res *sim.Result) int {
	end := res.Config.Span.Seconds()
	n := 0
	for _, caps := range res.Captures {
		for _, c := range caps {
			if c.Time.Sub(res.Config.Epoch).Seconds() <= end {
				n++
			}
		}
	}
	return n
}

// tileOutcome classifies a runtime tile action for the deploy counts.
func tileOutcome(a kodan.Action) string {
	switch a {
	case kodan.Discard:
		return "discarded"
	case kodan.Downlink:
		return "downlinked"
	default:
		return "filtered"
	}
}

// checkLedger requires a ledger to send no more than its capacity and no
// more value than it sent.
func checkLedger(c *checks, name string, l kodan.Ledger) {
	c.expect(name+"_within_capacity", l.DownlinkedBits <= l.CapacityBits*(1+1e-9),
		"downlinked %v > capacity %v", l.DownlinkedBits, l.CapacityBits)
	c.expect(name+"_value_within_sent", l.HighValueBits <= l.DownlinkedBits*(1+1e-9),
		"high-value %v > downlinked %v", l.HighValueBits, l.DownlinkedBits)
}
