// Package station models the ground segment: ground-station locations,
// line-of-sight visibility to satellites above an elevation mask, and
// contact-window search. The default segment reproduces the Landsat 8
// ground network the paper models with cote (Sioux Falls, Gilmore Creek,
// and Svalbard).
package station

import (
	"fmt"
	"time"

	"kodan/internal/geo"
	"kodan/internal/orbit"
)

// Station is a ground station.
type Station struct {
	// Name identifies the station in ledgers and logs.
	Name string
	// Location is the station's geodetic position.
	Location geo.Geodetic
	// MinElevationRad is the elevation mask: the satellite is visible only
	// when its elevation exceeds this angle.
	MinElevationRad float64
}

// String implements fmt.Stringer.
func (s Station) String() string {
	return fmt.Sprintf("%s (%s)", s.Name, s.Location)
}

// ecef returns the station position in Earth-fixed coordinates.
func (s Station) ecef() geo.Vec3 { return geo.GeodeticToECEF(s.Location) }

// LandsatSegment returns the three-station ground network used by the
// Landsat program, with a 5-degree elevation mask.
func LandsatSegment() []Station {
	mask := geo.Deg2Rad(5)
	return []Station{
		{Name: "Sioux Falls", Location: geo.Geodetic{LatDeg: 43.736, LonDeg: -96.622}, MinElevationRad: mask},
		{Name: "Gilmore Creek", Location: geo.Geodetic{LatDeg: 64.977, LonDeg: -147.510}, MinElevationRad: mask},
		{Name: "Svalbard", Location: geo.Geodetic{LatDeg: 78.230, LonDeg: 15.389}, MinElevationRad: mask},
	}
}

// Visible reports whether the satellite with elements e is above the
// station's elevation mask at time t.
func (s Station) Visible(e orbit.Elements, t time.Time) bool {
	return s.Elevation(e, t) >= s.MinElevationRad
}

// Elevation returns the satellite's elevation above the station's horizon
// in radians at time t.
func (s Station) Elevation(e orbit.Elements, t time.Time) float64 {
	p := orbit.NewPropagator(e)
	return geo.ElevationAngle(s.ecef(), satECEF(&p, t))
}

// satECEF returns the satellite's Earth-fixed position at time t.
func satECEF(p *orbit.Propagator, t time.Time) geo.Vec3 {
	return geo.ECIToECEF(p.Position(t), t)
}

// site is a station prepared for a scan: its Earth-fixed position is
// computed once rather than at every visibility test.
type site struct {
	ecef geo.Vec3
	mask float64
}

// visible reports whether a satellite at Earth-fixed position sat is above
// the site's elevation mask.
func (s site) visible(sat geo.Vec3) bool {
	return geo.ElevationAngle(s.ecef, sat) >= s.mask
}

// Window is a contiguous visibility interval.
type Window struct {
	Start time.Time
	End   time.Time
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// Contains reports whether t lies in [Start, End).
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// ScanStep is the contact-window search step every simulation scans at:
// shorter than any LEO pass above a 5-degree mask.
const ScanStep = 30 * time.Second

// ContactWindows returns the visibility windows of the satellite with
// elements e at every station in ss over [start, start+span): windows[i]
// belongs to ss[i]. One coarse scan at ScanStep propagates the orbit and
// rotates it to Earth-fixed coordinates once per step, then tests every
// station against that point; each station's edges are refined to
// one-second precision by bisection.
func ContactWindows(ss []Station, e orbit.Elements, start time.Time, span time.Duration) [][]Window {
	if len(ss) == 0 {
		return nil
	}
	p := orbit.NewPropagator(e)
	end := start.Add(span)
	sites := make([]site, len(ss))
	windows := make([][]Window, len(ss))
	up := make([]bool, len(ss))
	winStart := make([]time.Time, len(ss))
	sat := satECEF(&p, start)
	for i, s := range ss {
		sites[i] = site{ecef: s.ecef(), mask: s.MinElevationRad}
		up[i] = sites[i].visible(sat)
		if up[i] {
			winStart[i] = start
		}
	}
	prev := start
	for t := start.Add(ScanStep); !t.After(end); t = t.Add(ScanStep) {
		sat := satECEF(&p, t)
		for i, st := range sites {
			now := st.visible(sat)
			if now == up[i] {
				continue
			}
			edge := refineEdge(&p, st, prev, t, up[i])
			if now {
				winStart[i] = edge
			} else {
				windows[i] = append(windows[i], Window{Start: winStart[i], End: edge})
			}
			up[i] = now
		}
		prev = t
	}
	for i := range sites {
		if up[i] {
			windows[i] = append(windows[i], Window{Start: winStart[i], End: end})
		}
	}
	return windows
}

// refineEdge bisects to one-second precision the transition between lo
// (visibility == wasUp) and hi (visibility == !wasUp).
func refineEdge(p *orbit.Propagator, s site, lo, hi time.Time, wasUp bool) time.Time {
	for hi.Sub(lo) > time.Second {
		mid := lo.Add(hi.Sub(lo) / 2)
		if s.visible(satECEF(p, mid)) == wasUp {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// SubtractWindows removes the cut intervals from the visibility windows,
// returning the remaining (possibly split) windows in time order. Windows
// and cuts need not be sorted; empty cuts return ws unchanged (the same
// slice, so the fault-free path allocates nothing).
func SubtractWindows(ws, cuts []Window) []Window {
	if len(cuts) == 0 || len(ws) == 0 {
		return ws
	}
	out := make([]Window, 0, len(ws))
	for _, w := range ws {
		pieces := []Window{w}
		for _, cut := range cuts {
			var next []Window
			for _, p := range pieces {
				// No overlap: the piece survives whole.
				if !cut.Start.Before(p.End) || !cut.End.After(p.Start) {
					next = append(next, p)
					continue
				}
				if cut.Start.After(p.Start) {
					next = append(next, Window{Start: p.Start, End: cut.Start})
				}
				if cut.End.Before(p.End) {
					next = append(next, Window{Start: cut.End, End: p.End})
				}
			}
			pieces = next
		}
		out = append(out, pieces...)
	}
	return out
}

// TotalContact returns the summed duration of all windows.
func TotalContact(ws []Window) time.Duration {
	var total time.Duration
	for _, w := range ws {
		total += w.Duration()
	}
	return total
}
