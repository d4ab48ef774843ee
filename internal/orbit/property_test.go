package orbit_test

import (
	"math"
	"testing"
	"time"

	"kodan/internal/geo"
	"kodan/internal/orbit"
	"kodan/internal/station"
	"kodan/internal/xrand"
)

// randomElements draws a plausible near-circular LEO element set from a
// seeded stream, so every seed in the table exercises a different orbit
// deterministically.
func randomElements(seed uint64, epoch time.Time) orbit.Elements {
	rng := xrand.New(seed)
	return orbit.Elements{
		SemiMajorAxisM: geo.EarthRadius + rng.Range(400e3, 900e3),
		Eccentricity:   rng.Range(0, 0.02),
		InclinationRad: rng.Range(0, math.Pi),
		RAANRad:        rng.Range(0, 2*math.Pi),
		ArgPerigeeRad:  rng.Range(0, 2*math.Pi),
		MeanAnomalyRad: rng.Range(0, 2*math.Pi),
		Epoch:          epoch,
	}
}

var propertySeeds = []uint64{1, 2, 3, 5, 8, 13, 21, 2023}

// TestPropagateRadiusStaysBounded checks the first invariant of Keplerian
// motion with secular J2: the orbital radius stays inside
// [a(1-e), a(1+e)] over a multi-revolution span (the J2 model only
// precesses angles, it never pumps energy).
func TestPropagateRadiusStaysBounded(t *testing.T) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	for _, seed := range propertySeeds {
		e := randomElements(seed, epoch)
		if err := e.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lo := e.SemiMajorAxisM * (1 - e.Eccentricity)
		hi := e.SemiMajorAxisM * (1 + e.Eccentricity)
		span := 3 * e.Period()
		for dt := time.Duration(0); dt < span; dt += time.Minute {
			s := orbit.Propagate(e, epoch.Add(dt))
			r := s.Position.Norm()
			if r < lo*(1-1e-9) || r > hi*(1+1e-9) {
				t.Fatalf("seed %d at +%v: radius %.0f outside [%.0f, %.0f]", seed, dt, r, lo, hi)
			}
		}
	}
}

// TestPropagateVisViva checks energy consistency: the speed matches the
// vis-viva relation v^2 = mu(2/r - 1/a) up to the small rigid-rotation
// terms the J2 precession adds to the velocity.
func TestPropagateVisViva(t *testing.T) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	for _, seed := range propertySeeds {
		e := randomElements(seed, epoch)
		for dt := time.Duration(0); dt < 2*e.Period(); dt += 5 * time.Minute {
			s := orbit.Propagate(e, epoch.Add(dt))
			r := s.Position.Norm()
			want := math.Sqrt(geo.EarthMu * (2/r - 1/e.SemiMajorAxisM))
			got := s.Velocity.Norm()
			// The J2 precession's rigid-rotation velocity terms add up to
			// ~|nodal rate| * r ≈ 10 m/s on top of the Keplerian speed.
			if rel := math.Abs(got-want) / want; rel > 5e-3 {
				t.Fatalf("seed %d at +%v: speed %.1f, vis-viva %.1f (rel %.2e)", seed, dt, got, want, rel)
			}
		}
	}
}

// TestSubpointRanges checks the ground-track invariants: geodetic latitude
// within [-90, 90] and additionally bounded by the inclination (plus a
// small geodetic-vs-geocentric allowance), longitude within (-180, 180].
func TestSubpointRanges(t *testing.T) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	for _, seed := range propertySeeds {
		e := randomElements(seed, epoch)
		// Max geocentric latitude of the track is min(i, 180-i).
		maxLat := geo.Rad2Deg(math.Min(e.InclinationRad, math.Pi-e.InclinationRad))
		for _, g := range orbit.GroundTrack(e, epoch, 2*e.Period(), 30*time.Second) {
			if g.LatDeg < -90 || g.LatDeg > 90 {
				t.Fatalf("seed %d: latitude %.4f out of range", seed, g.LatDeg)
			}
			if math.Abs(g.LatDeg) > maxLat+0.5 {
				t.Fatalf("seed %d: latitude %.4f exceeds inclination bound %.4f", seed, g.LatDeg, maxLat)
			}
			if g.LonDeg <= -180 || g.LonDeg > 180 {
				t.Fatalf("seed %d: longitude %.4f out of range", seed, g.LonDeg)
			}
			// The drawn band is 400-900 km; eccentricity up to 0.02 moves
			// perigee/apogee by ~145 km and the ellipsoid's polar
			// flattening adds ~21 km of geodetic height near the poles.
			if g.AltM < 230e3 || g.AltM > 1100e3 {
				t.Fatalf("seed %d: subpoint altitude %.0f m outside LEO band", seed, g.AltM)
			}
		}
	}
}

// TestSunSynchronousInclination checks the design helper's contract: the
// returned orbit's nodal precession matches the Sun's mean motion, and the
// inclination is retrograde (> 90 deg) for all LEO altitudes.
func TestSunSynchronousInclination(t *testing.T) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	want := 2 * math.Pi / (365.2422 * geo.SolarDay)
	for _, alt := range []float64{400e3, 500e3, 700e3, 900e3} {
		e := orbit.SunSynchronous(alt, epoch)
		if e.InclinationRad <= math.Pi/2 {
			t.Errorf("alt %.0f km: inclination %.2f deg not retrograde", alt/1e3, geo.Rad2Deg(e.InclinationRad))
		}
		if got := e.NodalPrecessionRate(); math.Abs(got-want)/want > 1e-9 {
			t.Errorf("alt %.0f km: precession %.3e, want %.3e", alt/1e3, got, want)
		}
	}
}

// TestContactWindowsOrderedAndDisjoint checks the contact-search
// invariants across the seed table: windows are within the search span,
// have positive duration, and are strictly ordered without overlap.
func TestContactWindowsOrderedAndDisjoint(t *testing.T) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	span := 6 * time.Hour
	end := epoch.Add(span)
	for _, seed := range propertySeeds {
		e := randomElements(seed, epoch)
		for _, st := range station.LandsatSegment() {
			windows := station.ContactWindows([]station.Station{st}, e, epoch, span)[0]
			for i, w := range windows {
				if !w.End.After(w.Start) {
					t.Fatalf("seed %d %s: window %d empty (%v..%v)", seed, st.Name, i, w.Start, w.End)
				}
				if w.Start.Before(epoch) || w.End.After(end) {
					t.Fatalf("seed %d %s: window %d outside span", seed, st.Name, i)
				}
				if i > 0 && w.Start.Before(windows[i-1].End) {
					t.Fatalf("seed %d %s: window %d overlaps previous (%v < %v)",
						seed, st.Name, i, w.Start, windows[i-1].End)
				}
			}
			if got, want := station.TotalContact(windows), span; got > want {
				t.Fatalf("seed %d %s: total contact %v exceeds span", seed, st.Name, got)
			}
		}
	}
}

// TestConstellationPhasing checks that constellation builders only change
// angles — never the orbit geometry — and produce the requested population.
func TestConstellationPhasing(t *testing.T) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	base := orbit.Landsat8(epoch)
	for _, n := range []int{1, 2, 7, 16} {
		for _, sats := range [][]orbit.Elements{orbit.Constellation(base, n), orbit.WalkerConstellation(base, n, 3)} {
			if len(sats) != n {
				t.Fatalf("n=%d: got %d satellites", n, len(sats))
			}
			for i, e := range sats {
				if e.SemiMajorAxisM != base.SemiMajorAxisM || e.InclinationRad != base.InclinationRad {
					t.Fatalf("n=%d sat %d: orbit geometry changed", n, i)
				}
				if e.MeanAnomalyRad < 0 || e.MeanAnomalyRad >= 2*math.Pi {
					t.Fatalf("n=%d sat %d: mean anomaly %.4f not wrapped", n, i, e.MeanAnomalyRad)
				}
			}
		}
	}
}
