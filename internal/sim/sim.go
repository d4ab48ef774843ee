// Package sim composes the substrate packages — orbital mechanics, the
// reference grid, the imaging payload, ground stations, and the radio link —
// into constellation-scale simulations. It is the reproduction's equivalent
// of the cote simulator the paper uses to quantify the downlink bottleneck
// (Figures 2-5): it produces, for an N-satellite constellation over a time
// span, the full capture schedule and the contention-resolved downlink
// budget of every satellite.
package sim

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"kodan/internal/fault"
	"kodan/internal/link"
	"kodan/internal/orbit"
	"kodan/internal/parallel"
	"kodan/internal/sense"
	"kodan/internal/station"
	"kodan/internal/telemetry"
	"kodan/internal/wrs"
	"kodan/internal/xrand"
)

// Config describes one constellation simulation.
type Config struct {
	// Epoch is the simulation start time.
	Epoch time.Time
	// Span is the simulated duration.
	Span time.Duration
	// BaseOrbit is the orbit every satellite shares (phased copies).
	BaseOrbit orbit.Elements
	// Satellites is the constellation population.
	Satellites int
	// Planes spreads the constellation over this many orbital planes;
	// 1 (the default when zero) keeps the paper's single-plane model.
	Planes int
	// RandomPhases draws in-plane phases from a seeded stream instead of
	// spacing them evenly. Uncoordinated constellations (independently
	// operated satellites sharing an orbit regime) do not phase-lock to
	// the reference grid, so their daily coverage follows coupon-collector
	// statistics rather than perfect tiling — the regime of Figure 3.
	RandomPhases bool
	// PhaseSeed seeds the random phases (default 1).
	PhaseSeed uint64
	// Camera is the imaging payload carried by every satellite.
	Camera sense.Camera
	// Grid is the world reference grid.
	Grid wrs.Grid
	// Stations is the ground segment.
	Stations []station.Station
	// Radio is the downlink radio.
	Radio link.Radio
	// Workers bounds the parallelism of the per-satellite capture
	// schedules and contact-window scans: 0 uses GOMAXPROCS, 1 forces the
	// sequential path. Results are bit-identical at every worker count —
	// each satellite's schedule is a pure function of its own elements,
	// and results are written back by satellite index.
	Workers int
}

// withDefaults fills unset tunables.
func (c Config) withDefaults() Config {
	if c.Planes == 0 {
		c.Planes = 1
	}
	return c
}

// validate rejects configurations that cannot be simulated.
func (c Config) validate() error {
	if c.Satellites <= 0 {
		return fmt.Errorf("sim: non-positive satellite count %d", c.Satellites)
	}
	if c.Span <= 0 {
		return fmt.Errorf("sim: non-positive span %v", c.Span)
	}
	if err := c.BaseOrbit.Validate(); err != nil {
		return err
	}
	if err := c.Camera.Validate(); err != nil {
		return err
	}
	return nil
}

// Landsat8Config returns the paper's reference configuration: the Landsat 8
// orbit, camera, grid, ground segment, and radio with n satellites evenly
// phased in one plane over the given span.
func Landsat8Config(epoch time.Time, span time.Duration, n int) Config {
	return Config{
		Epoch:      epoch,
		Span:       span,
		BaseOrbit:  orbit.Landsat8(epoch),
		Satellites: n,
		Camera:     sense.Landsat8MS(),
		Grid:       wrs.Landsat8Grid(),
		Stations:   station.LandsatSegment(),
		Radio:      link.Landsat8Radio(),
	}
}

// Result holds everything a simulation produced. It is read-only once
// drained: DrainDeferredCtx caches its converted capture and grant times.
type Result struct {
	// Config echoes the (defaulted) configuration that ran.
	Config Config
	// Orbits lists the per-satellite element sets.
	Orbits []orbit.Elements
	// Captures lists every frame capture per satellite, in time order.
	Captures [][]sense.Capture
	// Grants is the contention-resolved station-time schedule.
	Grants []link.Grant
	// Served is the total granted downlink time per satellite.
	Served []time.Duration
	// FadedBits, set only when the run carried a fault injector with link
	// fades, is the per-satellite downlink capacity in bits with the fade
	// derates integrated over every grant. Nil on fault-free runs, so
	// DownlinkBits falls back to the nominal rate and stays byte-identical
	// to an uninjected run.
	FadedBits []float64

	// drainCache holds the capture and grant times DrainDeferredCtx reads,
	// converted on the first drain; a Result is read-only once drained.
	drainCache atomic.Pointer[drainTimes]
}

// RunCtx executes the simulation. The per-satellite propagation and
// contact-window loops run on cfg.Workers goroutines; ctx cancellation
// aborts the remaining satellites and returns ctx's error.
//
// When ctx carries a telemetry probe, the run emits a sim.run span (sim-
// time stamped with the simulated interval) with per-satellite capture
// spans, per-satellite contact-window spans, and a downlink-allocation
// span underneath, plus frame/window/grant counters in the
// "sim" scope. When ctx carries a mission event journal
// (events.WithJournal), the finished run is journaled in sim time —
// captures, scene boundaries, contacts, grants, fault windows — and
// per-type counts are published as sim.events.* counters. Neither probe
// influences the simulation: results remain byte-identical with tracing
// and journaling on or off and at every worker count.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, "sim.run")
	defer span.End()
	span.Sim(cfg.Epoch, cfg.Epoch.Add(cfg.Span))
	span.Set("sats", fmt.Sprint(cfg.Satellites))
	scope := telemetry.ProbeFrom(ctx).Metrics.Scope("sim")
	logger := telemetry.LoggerFrom(ctx)
	logStart := time.Now()
	logger.Debug("sim started",
		"sats", cfg.Satellites, "planes", cfg.Planes,
		"spanHours", cfg.Span.Hours(), "workers", parallel.Workers(cfg.Workers))

	var sats []orbit.Elements
	switch {
	case cfg.RandomPhases:
		seed := cfg.PhaseSeed
		if seed == 0 {
			seed = 1
		}
		rng := xrand.New(seed)
		sats = make([]orbit.Elements, cfg.Satellites)
		for i := range sats {
			e := cfg.BaseOrbit
			e.MeanAnomalyRad = rng.Range(0, 2*math.Pi)
			sats[i] = e
		}
	case cfg.Planes > 1:
		sats = orbit.WalkerConstellation(cfg.BaseOrbit, cfg.Satellites, cfg.Planes)
	default:
		sats = orbit.Constellation(cfg.BaseOrbit, cfg.Satellites)
	}

	res := &Result{Config: cfg, Orbits: sats}
	workers := parallel.Workers(cfg.Workers)

	// Degraded-mode injection: when the context carries a fault injector
	// (nil = no-op, mirroring the telemetry probe), captures inside sensor
	// dropouts and satellite resets are lost, contact windows are cut by
	// station outages and resets, and link fades derate the downlink.
	// Every injected effect is a pure function of (schedule, satellite,
	// time), so faulted runs stay bit-identical at every worker count; a
	// nil injector leaves every slice untouched.
	inj := fault.InjectorFrom(ctx)
	faultScope := scope
	if !inj.Active() {
		faultScope = nil
	} else {
		var fsp *telemetry.Span
		ctx, fsp = telemetry.StartSpan(ctx, "fault.inject")
		defer fsp.End()
		fsp.Sim(cfg.Epoch, cfg.Epoch.Add(cfg.Span))
	}

	// Capture schedules: one independent propagation per satellite.
	framesCtr := scope.Counter("frames_captured")
	droppedCtr := faultScope.Counter("fault.captures_dropped")
	captures, err := parallel.Map(ctx, workers, len(sats), func(ictx context.Context, i int) ([]sense.Capture, error) {
		_, sp := telemetry.StartSpan(ictx, "sim.captures")
		defer sp.End()
		sp.Sim(cfg.Epoch, cfg.Epoch.Add(cfg.Span))
		sp.Set("sat", fmt.Sprint(i))
		im, err := sense.NewImager(cfg.Camera, sats[i], cfg.Grid)
		if err != nil {
			return nil, err
		}
		caps := im.Captures(cfg.Epoch, cfg.Span)
		for j := range caps {
			caps[j].Sat = i
		}
		if inj.Active() {
			kept := caps[:0]
			for _, c := range caps {
				if inj.SensorDown(i, c.Time) {
					continue
				}
				kept = append(kept, c)
			}
			droppedCtr.Add(int64(len(caps) - len(kept)))
			caps = kept
		}
		framesCtr.Add(int64(len(caps)))
		return caps, nil
	})
	if err != nil {
		return nil, err
	}
	res.Captures = captures

	// Contact windows: one scan per satellite propagates its orbit once per
	// step and tests every station against that point. Station cuts then
	// apply per station, in station order. The contention-resolving
	// allocation below stays sequential — grants depend on the whole
	// window set.
	windowsCtr := scope.Counter("contact_windows")
	cutCtr := faultScope.Counter("fault.contact_cut_seconds")
	perSat, err := parallel.Map(ctx, workers, len(sats), func(ictx context.Context, j int) ([][]station.Window, error) {
		_, sp := telemetry.StartSpan(ictx, "sim.contacts")
		defer sp.End()
		sp.Sim(cfg.Epoch, cfg.Epoch.Add(cfg.Span))
		sp.Set("sat", fmt.Sprint(j))
		scanned := station.ContactWindows(cfg.Stations, sats[j], cfg.Epoch, cfg.Span)
		for si, ws := range scanned {
			if cuts := inj.StationCuts(cfg.Stations[si].Name, j); len(cuts) > 0 {
				sw := make([]station.Window, len(cuts))
				for c, cut := range cuts {
					sw[c] = station.Window{Start: cut.Start, End: cut.End}
				}
				before := station.TotalContact(ws)
				scanned[si] = station.SubtractWindows(ws, sw)
				cutCtr.Add(int64((before - station.TotalContact(scanned[si])).Seconds()))
			}
			windowsCtr.Add(int64(len(scanned[si])))
		}
		return scanned, nil
	})
	if err != nil {
		return nil, err
	}
	// The allocation indexes windows by station, then satellite.
	windows := make([][][]station.Window, len(cfg.Stations))
	for si := range windows {
		windows[si] = make([][]station.Window, len(sats))
		for j, scanned := range perSat {
			windows[si][j] = scanned[si]
		}
	}
	_, sp := telemetry.StartSpan(ctx, "sim.downlink")
	sp.Sim(cfg.Epoch, cfg.Epoch.Add(cfg.Span))
	res.Grants = link.Allocate(link.Problem{
		Start:   cfg.Epoch,
		Span:    cfg.Span,
		Windows: windows,
	})
	res.Served = link.PerSatServed(res.Grants, len(sats))
	if inj.HasFades() {
		res.FadedBits = link.DeratedBits(cfg.Radio, res.Grants, len(sats),
			func(st int, t time.Time) float64 { return inj.LinkDerate(cfg.Stations[st].Name, t) })
		faded := 0.0
		for i, b := range res.FadedBits {
			faded += cfg.Radio.Bits(res.Served[i]) - b
		}
		faultScope.Counter("fault.faded_bits").Add(int64(faded))
	}
	sp.Set("grants", fmt.Sprint(len(res.Grants)))
	sp.End()
	scope.Counter("grants").Add(int64(len(res.Grants)))
	scope.Counter("runs").Inc()
	// Downlink utilization — downlinkable frames over observed frames —
	// is the contact-side number the ops dashboard tracks; recording it
	// reads the finished result and cannot influence it.
	observed := res.FramesObserved()
	if observed > 0 {
		scope.Histogram("downlink_utilization").Observe(res.FrameCapacity() / float64(observed))
	}
	// Mission event journal: written sequentially from the finished result
	// (and the contact windows the allocation consumed), so the journal is
	// byte-identical at every worker count and never influences the run.
	journalMission(ctx, cfg, res, windows)
	logger.Debug("sim finished",
		"frames", observed, "grants", len(res.Grants),
		"wallMs", time.Since(logStart).Milliseconds())
	return res, nil
}

// FramesObserved returns the total frames captured by the constellation.
func (r *Result) FramesObserved() int {
	total := 0
	for _, caps := range r.Captures {
		total += len(caps)
	}
	return total
}

// UniqueScenes returns the number of distinct grid scenes observed.
func (r *Result) UniqueScenes() int {
	cov := wrs.NewCoverage(r.Config.Grid)
	for _, caps := range r.Captures {
		for _, c := range caps {
			cov.Mark(c.Scene)
		}
	}
	return cov.Count()
}

// DownlinkBits returns the total downlink capacity per satellite in bits.
// On a fault-injected run with link fades it returns the derated capacity
// (FadedBits); otherwise the nominal rate over the granted time.
func (r *Result) DownlinkBits() []float64 {
	out := make([]float64, len(r.Served))
	if r.FadedBits != nil {
		copy(out, r.FadedBits)
		return out
	}
	for i, d := range r.Served {
		out[i] = r.Config.Radio.Bits(d)
	}
	return out
}

// FrameCapacity returns the total number of whole frames the constellation
// can downlink within its granted station time.
func (r *Result) FrameCapacity() float64 {
	var bits float64
	for _, b := range r.DownlinkBits() {
		bits += b
	}
	return bits / r.Config.Camera.FrameBits()
}

// FrameCapacityPerSat returns per-satellite downlinkable frame counts.
func (r *Result) FrameCapacityPerSat() []float64 {
	bits := r.DownlinkBits()
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = b / r.Config.Camera.FrameBits()
	}
	return out
}
