package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"kodan/internal/fault"
	"kodan/internal/sim"
	"kodan/internal/telemetry"
)

// resilienceSats is the constellation size of the resilience sweep: small
// enough that Quick runs stay sub-second, large enough that per-satellite
// faults (dropouts, resets) do not zero the whole run.
const resilienceSats = 2

// ResilienceIntensities returns the fault-intensity sweep points at this
// size. Intensity 0 is always first — it is the fault-free baseline every
// other row's retention is measured against.
func (l *Lab) ResilienceIntensities() []float64 {
	if l.Size == Quick {
		return []float64{0, 0.5, 1}
	}
	return []float64{0, 0.25, 0.5, 0.75, 1}
}

// ResilienceRow is one fault intensity of the resilience sweep.
type ResilienceRow struct {
	// Intensity scales the generated fault schedule (0 = fault-free).
	Intensity float64
	// Faults is the number of fault windows in the generated schedule.
	Faults int
	// Frames is the constellation's observed frame count for the day.
	Frames int
	// DownFrames is the downlinkable frame capacity (fade-derated).
	DownFrames float64
	// DVD is the high-value frames downlinked per day under ideal OEC
	// filtering: min(capacity, high-value observed).
	DVD float64
	// Retention is DVD relative to the intensity-0 baseline.
	Retention float64
}

// ResilienceSweepCtx sweeps fault intensity over a one-day two-satellite
// mission and reports how downlinked value degrades. Each intensity's
// fault schedule is generated deterministically from the lab seed, so the
// whole table is byte-identical across runs and worker counts, and the
// intensity-0 row runs the plain fault-free path (no injector attached).
// The intensity sweep runs on the lab's worker pool.
func (l *Lab) ResilienceSweepCtx(ctx context.Context) ([]ResilienceRow, error) {
	intensities := l.ResilienceIntensities()
	rows, err := sweep(ctx, l, len(intensities), func(ctx context.Context, i int) (ResilienceRow, error) {
		return l.resilienceRow(ctx, intensities[i], uint64(i))
	})
	if err != nil {
		return nil, err
	}
	base := rows[0].DVD
	for i := range rows {
		if base > 0 {
			rows[i].Retention = rows[i].DVD / base
		}
	}
	return rows, nil
}

// resilienceRow evaluates one intensity. The schedule seed mixes the
// sweep index so each intensity draws an independent fault pattern.
func (l *Lab) resilienceRow(ctx context.Context, intensity float64, idx uint64) (ResilienceRow, error) {
	ctx, sp := telemetry.StartSpan(ctx, "resilience.row")
	defer sp.End()
	// Fault intensity is a variant attribute: trace diffs of a degraded
	// vs fault-free run label the sweep point that changed.
	sp.Set("intensity", fmt.Sprintf("%g", intensity))
	cfg := sim.Landsat8Config(l.Epoch, 24*time.Hour, resilienceSats)
	cfg.Workers = l.Workers
	var res *sim.Result
	var err error
	nFaults := 0
	if intensity == 0 {
		// The baseline shares the memoized fault-free day run.
		res, err = l.dayRun(ctx, resilienceSats)
	} else {
		names := make([]string, len(cfg.Stations))
		for s, st := range cfg.Stations {
			names[s] = st.Name
		}
		sched := fault.Generate(fault.GenConfig{
			Seed:      l.Seed ^ (idx << 32),
			Start:     l.Epoch,
			Span:      24 * time.Hour,
			Intensity: intensity,
			Stations:  names,
			Sats:      resilienceSats,
		})
		nFaults = len(sched.Windows)
		res, err = sim.RunCtx(fault.WithInjector(ctx, fault.NewInjector(sched)), cfg)
	}
	if err != nil {
		return ResilienceRow{}, err
	}
	observed := float64(res.FramesObserved())
	capacity := res.FrameCapacity()
	hv := observed * (1 - cloudyPrevalence)
	dvd := capacity
	if dvd > hv {
		dvd = hv
	}
	return ResilienceRow{
		Intensity:  intensity,
		Faults:     nFaults,
		Frames:     res.FramesObserved(),
		DownFrames: capacity,
		DVD:        dvd,
	}, nil
}

// RenderResilience formats the resilience sweep.
func RenderResilience(rows []ResilienceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Resilience sweep: downlinked value vs fault intensity (%d sats, 1 day, ideal OEC)\n", resilienceSats)
	fmt.Fprintf(&b, "%9s %7s %8s %11s %9s %10s\n", "Intensity", "Faults", "Frames", "DownFrames", "DVD", "Retention")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9.2f %7d %8d %11.1f %9.1f %9.1f%%\n",
			r.Intensity, r.Faults, r.Frames, r.DownFrames, r.DVD, 100*r.Retention)
	}
	return b.String()
}
