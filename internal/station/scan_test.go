package station

import (
	"reflect"
	"testing"
	"time"

	"kodan/internal/geo"
	"kodan/internal/orbit"
	"kodan/internal/xrand"
)

// referenceVisible is the visibility test the shared scan replaced: it
// propagates the orbit and converts the station's position afresh.
func referenceVisible(s Station, e orbit.Elements, t time.Time) bool {
	sat := geo.ECIToECEF(orbit.Propagate(e, t).Position, t)
	return geo.ElevationAngle(geo.GeodeticToECEF(s.Location), sat) >= s.MinElevationRad
}

// referenceContactWindows is the per-station scan the shared scan
// replaced, kept as the oracle.
func referenceContactWindows(s Station, e orbit.Elements, start time.Time, span time.Duration) []Window {
	end := start.Add(span)
	var windows []Window
	up := referenceVisible(s, e, start)
	var winStart time.Time
	if up {
		winStart = start
	}
	prev := start
	for t := start.Add(ScanStep); !t.After(end); t = t.Add(ScanStep) {
		now := referenceVisible(s, e, t)
		if now != up {
			edge := referenceRefineEdge(s, e, prev, t, up)
			if now {
				winStart = edge
			} else {
				windows = append(windows, Window{Start: winStart, End: edge})
			}
			up = now
		}
		prev = t
	}
	if up {
		windows = append(windows, Window{Start: winStart, End: end})
	}
	return windows
}

func referenceRefineEdge(s Station, e orbit.Elements, lo, hi time.Time, wasUp bool) time.Time {
	for hi.Sub(lo) > time.Second {
		mid := lo.Add(hi.Sub(lo) / 2)
		if referenceVisible(s, e, mid) == wasUp {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// TestSharedScanMatchesPerStationScan pins the shared scan to the
// per-station reference: every station's windows must be identical, over
// the Landsat segment plus random stations and masks, three orbits and
// three scan starts that put the ScanStep sample grid at different
// phases of each pass.
func TestSharedScanMatchesPerStationScan(t *testing.T) {
	rng := xrand.New(7)
	stations := LandsatSegment()
	for i := 0; i < 5; i++ {
		stations = append(stations, Station{
			Name:            "random",
			Location:        geo.Geodetic{LatDeg: rng.Range(-85, 85), LonDeg: rng.Range(-180, 180), AltM: rng.Range(0, 3000)},
			MinElevationRad: geo.Deg2Rad(rng.Range(0, 20)),
		})
	}
	landsat := orbit.Landsat8(epoch)
	phased := landsat
	phased.MeanAnomalyRad = 2.2
	phased.RAANRad = 1.3
	inclined := orbit.Elements{
		SemiMajorAxisM: geo.EarthRadius + 550e3,
		Eccentricity:   0.01,
		InclinationRad: geo.Deg2Rad(53),
		ArgPerigeeRad:  0.4,
		MeanAnomalyRad: 5.1,
		Epoch:          epoch,
	}
	// Start off the epoch so scans open mid-pass for some stations.
	for oi, e := range []orbit.Elements{landsat, phased, inclined} {
		for _, off := range []time.Duration{17 * time.Minute, 17*time.Minute + 11*time.Second, 17*time.Minute + 23*time.Second} {
			start := epoch.Add(off)
			got := ContactWindows(stations, e, start, 36*time.Hour)
			if len(got) != len(stations) {
				t.Fatalf("orbit %d start +%v: %d window lists for %d stations", oi, off, len(got), len(stations))
			}
			total := 0
			for si, s := range stations {
				want := referenceContactWindows(s, e, start, 36*time.Hour)
				if !reflect.DeepEqual(got[si], want) {
					t.Fatalf("orbit %d start +%v station %d: windows\n%v\nwant\n%v", oi, off, si, got[si], want)
				}
				total += len(want)
			}
			if total == 0 {
				t.Fatalf("orbit %d start +%v: no contacts at any station", oi, off)
			}
		}
	}
}

// TestVisibleMatchesReference pins Station.Visible to the reference test.
func TestVisibleMatchesReference(t *testing.T) {
	e := orbit.Landsat8(epoch)
	for _, s := range LandsatSegment() {
		for dt := time.Duration(0); dt < 6*time.Hour; dt += 13 * time.Second {
			tt := epoch.Add(dt)
			if got, want := s.Visible(e, tt), referenceVisible(s, e, tt); got != want {
				t.Fatalf("%s at %v: Visible = %v, want %v", s.Name, tt, got, want)
			}
		}
	}
}

func TestContactWindowsNoStations(t *testing.T) {
	if got := ContactWindows(nil, orbit.Landsat8(epoch), epoch, time.Hour); len(got) != 0 {
		t.Fatalf("windows for no stations: %v", got)
	}
}

func BenchmarkContactWindows(b *testing.B) {
	e := orbit.Landsat8(epoch)
	seg := LandsatSegment()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ContactWindows(seg, e, epoch, 24*time.Hour)
	}
}
