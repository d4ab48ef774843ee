package fault

import (
	"context"
	"math"
	"time"
)

// Injector is a read-only, query-by-time view over a schedule. The nil
// *Injector is the no-op: every query reports "no fault" (false, or a 1.0
// multiplier), mirroring the telemetry.Probe pattern, so instrumented
// layers call it unconditionally and stay byte-identical when fault
// injection is off.
//
// Every query is a pure function of (schedule, arguments): injectors are
// safe for concurrent use and independent of evaluation order, which is
// what keeps faulted simulations bit-identical at every worker count.
type Injector struct {
	byStation map[string][]Window // StationOutage + LinkFade, time-sorted
	bySat     map[int][]Window    // ComputeThrottle + SensorDropout + SatelliteReset
}

// NewInjector indexes a schedule for querying. A nil or empty schedule
// yields a nil (no-op) injector.
func NewInjector(s *Schedule) *Injector {
	if s == nil || len(s.Windows) == 0 {
		return nil
	}
	inj := &Injector{
		byStation: make(map[string][]Window),
		bySat:     make(map[int][]Window),
	}
	for _, w := range s.Windows {
		switch w.Kind {
		case StationOutage, LinkFade:
			inj.byStation[w.Station] = append(inj.byStation[w.Station], w)
		default:
			inj.bySat[w.Sat] = append(inj.bySat[w.Sat], w)
		}
	}
	for k := range inj.byStation {
		sortWindows(inj.byStation[k])
	}
	for k := range inj.bySat {
		sortWindows(inj.bySat[k])
	}
	return inj
}

// Active reports whether any fault windows are loaded.
func (inj *Injector) Active() bool { return inj != nil }

// AllWindows returns every loaded fault window in the canonical schedule
// order (start, kind, station, sat, end, severity). Nil on the no-op
// injector. Consumers that journal or render fault activity iterate this
// instead of the internal maps, so their output is deterministic.
func (inj *Injector) AllWindows() []Window {
	if inj == nil {
		return nil
	}
	var out []Window
	for _, ws := range inj.byStation {
		out = append(out, ws...)
	}
	for _, ws := range inj.bySat {
		out = append(out, ws...)
	}
	sortWindows(out)
	return out
}

// StationCuts returns the outage windows of the named station, plus the
// reset windows of satellite sat — the intervals during which the
// (station, sat) pair cannot communicate. Nil when no cuts apply.
func (inj *Injector) StationCuts(station string, sat int) []Window {
	if inj == nil {
		return nil
	}
	var cuts []Window
	for _, w := range inj.byStation[station] {
		if w.Kind == StationOutage {
			cuts = append(cuts, w)
		}
	}
	for _, w := range inj.bySat[sat] {
		if w.Kind == SatelliteReset {
			cuts = append(cuts, w)
		}
	}
	sortWindows(cuts)
	return cuts
}

// LinkDerate returns the capacity multiplier of the named station's
// downlink at t: 1.0 nominal, 10^(-dB/10) inside a fade (overlapping
// fades compound). The multiplier never exceeds 1.
func (inj *Injector) LinkDerate(station string, t time.Time) float64 {
	if inj == nil {
		return 1
	}
	db := 0.0
	for _, w := range inj.byStation[station] {
		if w.Kind == LinkFade && w.Contains(t) {
			db += w.Severity
		}
	}
	if db == 0 {
		return 1
	}
	return math.Pow(10, -db/10)
}

// HasFades reports whether any link-fade windows are loaded (so consumers
// can skip the derate integration entirely on fade-free schedules).
func (inj *Injector) HasFades() bool {
	if inj == nil {
		return false
	}
	for _, ws := range inj.byStation {
		for _, w := range ws {
			if w.Kind == LinkFade {
				return true
			}
		}
	}
	return false
}

// SensorDown reports whether satellite sat's imager is blind at t — a
// sensor dropout or a satellite reset.
func (inj *Injector) SensorDown(sat int, t time.Time) bool {
	if inj == nil {
		return false
	}
	for _, w := range inj.bySat[sat] {
		if (w.Kind == SensorDropout || w.Kind == SatelliteReset) && w.Contains(t) {
			return true
		}
	}
	return false
}

type ctxKey int

const injectorKey ctxKey = iota

// WithInjector attaches an injector to the context. The instrumented
// layers below — the simulator and the link allocator — pick it up with
// InjectorFrom.
func WithInjector(ctx context.Context, inj *Injector) context.Context {
	if inj == nil {
		return ctx
	}
	return context.WithValue(ctx, injectorKey, inj)
}

// InjectorFrom returns the context's injector, or nil (the no-op).
func InjectorFrom(ctx context.Context) *Injector {
	inj, _ := ctx.Value(injectorKey).(*Injector)
	return inj
}
