// Package fault is the reproduction's deterministic fault-injection
// engine. Every other layer simulates the happy path: stations are always
// up, links close at nominal capacity, transforms always complete. Real
// constellations see station outages, link fades, thermal and radiation
// compute throttling, sensor dropouts, and satellite safe-mode resets —
// the degraded regimes that constraint-aware space-ground planning treats
// as first-class. This package makes those regimes reproducible:
//
//   - A Schedule is a set of typed fault windows, either generated from a
//     seeded xrand stream (identical seed ⇒ identical schedule, on every
//     platform) or loaded from JSON.
//   - An Injector is a queryable, read-only view over a schedule that the
//     simulator and link allocator consult. It rides a context, mirroring
//     the telemetry.Probe pattern: nil is the no-op, and instrumented
//     layers are byte-identical with no injector attached.
//
// ComputeThrottle windows are generated, validated and journaled like
// every other kind, but no layer reads them: the simulator models no
// onboard compute time, so a throttle changes no capture, contact or
// downlink. The kind stays because removing it would move every
// generated schedule, journal and digest that draws one.
//
// Like telemetry, fault injection is observe-and-perturb only in declared
// ways: a nil injector changes nothing, and an injector's effect is a pure
// function of (schedule, query), never of scheduling order — which keeps
// faulted runs bit-identical at every worker count.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"kodan/internal/xrand"
)

// Kind is a fault category.
type Kind string

// Fault kinds.
const (
	// StationOutage takes a ground station offline: its contact windows
	// are cut for the outage's span. Target is the station name.
	StationOutage Kind = "station_outage"
	// LinkFade derates a station's downlink capacity: Severity is the
	// fade depth in dB (3 dB halves the effective rate). Target is the
	// station name.
	LinkFade Kind = "link_fade"
	// ComputeThrottle slows a satellite's compute: Severity is the
	// slowdown factor (2 means tiles take twice as long). Target is the
	// satellite index. No layer reads it yet (see the package doc).
	ComputeThrottle Kind = "compute_throttle"
	// SensorDropout blinds a satellite's imager: captures inside the
	// window are lost. Target is the satellite index.
	SensorDropout Kind = "sensor_dropout"
	// SatelliteReset is a safe-mode reset: the satellite neither captures
	// nor downlinks inside the window. Target is the satellite index.
	SatelliteReset Kind = "satellite_reset"
)

// kinds lists every kind, in a fixed order for deterministic iteration.
var kinds = []Kind{StationOutage, LinkFade, ComputeThrottle, SensorDropout, SatelliteReset}

// Valid reports whether k is a known kind.
func (k Kind) Valid() bool {
	for _, known := range kinds {
		if k == known {
			return true
		}
	}
	return false
}

// Window is one fault: a kind, a target, a time interval, and a severity
// whose meaning depends on the kind (dB for fades, slowdown factor for
// throttles, unused for binary faults).
type Window struct {
	Kind     Kind      `json:"kind"`
	Station  string    `json:"station,omitempty"`
	Sat      int       `json:"sat,omitempty"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Severity float64   `json:"severity,omitempty"`
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// Contains reports whether t lies in [Start, End).
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// validate rejects malformed windows.
func (w Window) validate() error {
	if !w.Kind.Valid() {
		return fmt.Errorf("fault: unknown kind %q", w.Kind)
	}
	if !w.End.After(w.Start) {
		return fmt.Errorf("fault: %s window with non-positive span [%v, %v)", w.Kind, w.Start, w.End)
	}
	switch w.Kind {
	case StationOutage, LinkFade:
		if w.Station == "" {
			return fmt.Errorf("fault: %s window without a station", w.Kind)
		}
	case ComputeThrottle, SensorDropout, SatelliteReset:
		if w.Sat < 0 {
			return fmt.Errorf("fault: %s window with negative satellite %d", w.Kind, w.Sat)
		}
	}
	if w.Kind == LinkFade && w.Severity < 0 {
		return fmt.Errorf("fault: link fade with negative depth %g dB", w.Severity)
	}
	if w.Kind == ComputeThrottle && w.Severity < 1 {
		return fmt.Errorf("fault: compute throttle with factor %g < 1", w.Severity)
	}
	return nil
}

// Schedule is a validated, time-sorted set of fault windows plus the seed
// that generated it (zero for hand-written schedules).
type Schedule struct {
	Seed    uint64   `json:"seed,omitempty"`
	Windows []Window `json:"windows"`
}

// Validate checks every window.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, w := range s.Windows {
		if err := w.validate(); err != nil {
			return fmt.Errorf("window %d: %w", i, err)
		}
	}
	return nil
}

// sortWindows orders windows by (start, kind, station, sat, end,
// severity) so generated and round-tripped schedules render identically.
// The trailing keys make the order total up to full window equality,
// which keeps consumers that re-derive window lists (the mission event
// journal) byte-deterministic.
func sortWindows(ws []Window) {
	sort.Slice(ws, func(a, b int) bool {
		if !ws[a].Start.Equal(ws[b].Start) {
			return ws[a].Start.Before(ws[b].Start)
		}
		if ws[a].Kind != ws[b].Kind {
			return ws[a].Kind < ws[b].Kind
		}
		if ws[a].Station != ws[b].Station {
			return ws[a].Station < ws[b].Station
		}
		if ws[a].Sat != ws[b].Sat {
			return ws[a].Sat < ws[b].Sat
		}
		if !ws[a].End.Equal(ws[b].End) {
			return ws[a].End.Before(ws[b].End)
		}
		return ws[a].Severity < ws[b].Severity
	})
}

// CountByKind returns the number of windows of each kind, keyed in the
// fixed kind order (absent kinds are present with zero).
func (s *Schedule) CountByKind() map[Kind]int {
	out := make(map[Kind]int, len(kinds))
	for _, k := range kinds {
		out[k] = 0
	}
	if s == nil {
		return out
	}
	for _, w := range s.Windows {
		out[w.Kind]++
	}
	return out
}

// Summary renders one line per kind with a window count and total
// duration, in fixed kind order.
func (s *Schedule) Summary() string {
	if s == nil || len(s.Windows) == 0 {
		return "no fault windows\n"
	}
	durs := map[Kind]time.Duration{}
	counts := s.CountByKind()
	for _, w := range s.Windows {
		durs[w.Kind] += w.Duration()
	}
	out := ""
	for _, k := range kinds {
		if counts[k] == 0 {
			continue
		}
		out += fmt.Sprintf("%-18s %3d window(s) %12v total\n", k, counts[k], durs[k])
	}
	return out
}

// WriteJSON writes the schedule as indented JSON.
func (s *Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadJSON parses and validates a schedule.
func ReadJSON(r io.Reader) (*Schedule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: bad schedule JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sortWindows(s.Windows)
	return &s, nil
}

// LoadFile reads a schedule from a JSON file.
func LoadFile(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSON(f)
}

// GenConfig sizes a generated schedule.
type GenConfig struct {
	// Seed drives the xrand stream; identical seeds yield identical
	// schedules.
	Seed uint64
	// Start and Span bound every generated window.
	Start time.Time
	Span  time.Duration
	// Intensity in [0, 1] scales how much of the span is faulted: 0
	// generates an empty schedule, 1 the heaviest regime (roughly one
	// sixth of each station's time out, 3-9 dB fades, multi-hour sensor
	// and compute degradations).
	Intensity float64
	// Stations are the ground-station names outages and fades target.
	Stations []string
	// Sats is the constellation population dropouts, throttles, and
	// resets target.
	Sats int
}

// Generate derives a fault schedule from the seeded stream. The draw
// order is fixed — per station first (outages, then fades), then per
// satellite (dropouts, throttles, resets) — so a schedule is a pure
// function of its GenConfig, independent of any consumer's worker count.
func Generate(cfg GenConfig) *Schedule {
	s := &Schedule{Seed: cfg.Seed}
	if cfg.Intensity <= 0 || cfg.Span <= 0 {
		return s
	}
	intensity := math.Min(cfg.Intensity, 1)
	rng := xrand.New(cfg.Seed)

	// windowsFor draws n windows of mean length mean, uniformly placed.
	draw := func(n int, mean time.Duration, mk func(start, end time.Time, r *xrand.Rand) Window) {
		for i := 0; i < n; i++ {
			length := time.Duration(rng.Range(0.5, 1.5) * float64(mean))
			latest := cfg.Span - length
			if latest <= 0 {
				length = cfg.Span / 2
				latest = cfg.Span - length
			}
			start := cfg.Start.Add(time.Duration(rng.Range(0, float64(latest))))
			s.Windows = append(s.Windows, mk(start, start.Add(length), rng))
		}
	}

	perStation := int(math.Round(intensity * 3))
	for _, st := range cfg.Stations {
		st := st
		draw(perStation, time.Duration(intensity*float64(cfg.Span)/18), func(a, b time.Time, _ *xrand.Rand) Window {
			return Window{Kind: StationOutage, Station: st, Start: a, End: b}
		})
		draw(perStation, time.Duration(intensity*float64(cfg.Span)/10), func(a, b time.Time, r *xrand.Rand) Window {
			return Window{Kind: LinkFade, Station: st, Start: a, End: b, Severity: r.Range(3, 3+6*intensity)}
		})
	}
	perSat := int(math.Round(intensity * 2))
	for sat := 0; sat < cfg.Sats; sat++ {
		sat := sat
		draw(perSat, time.Duration(intensity*float64(cfg.Span)/16), func(a, b time.Time, _ *xrand.Rand) Window {
			return Window{Kind: SensorDropout, Sat: sat, Start: a, End: b}
		})
		draw(perSat, time.Duration(intensity*float64(cfg.Span)/8), func(a, b time.Time, r *xrand.Rand) Window {
			return Window{Kind: ComputeThrottle, Sat: sat, Start: a, End: b, Severity: 1 + 3*intensity*r.Float64()}
		})
		draw(perSat, time.Duration(intensity*float64(cfg.Span)/24), func(a, b time.Time, _ *xrand.Rand) Window {
			return Window{Kind: SatelliteReset, Sat: sat, Start: a, End: b}
		})
	}
	sortWindows(s.Windows)
	return s
}
