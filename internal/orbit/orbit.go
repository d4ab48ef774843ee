// Package orbit implements two-body Keplerian orbit propagation with J2
// secular perturbations — the fidelity class used by the cote simulator for
// constellation-scale studies. It includes a design helper for circular
// sun-synchronous orbits (the Landsat 8 regime the paper evaluates in) and
// ground-track utilities.
package orbit

import (
	"fmt"
	"math"
	"time"

	"kodan/internal/geo"
)

// Elements are classical Keplerian orbital elements at a reference epoch.
type Elements struct {
	// SemiMajorAxisM is the semi-major axis in meters.
	SemiMajorAxisM float64
	// Eccentricity in [0, 1).
	Eccentricity float64
	// InclinationRad is the inclination in radians.
	InclinationRad float64
	// RAANRad is the right ascension of the ascending node in radians.
	RAANRad float64
	// ArgPerigeeRad is the argument of perigee in radians.
	ArgPerigeeRad float64
	// MeanAnomalyRad is the mean anomaly at Epoch in radians.
	MeanAnomalyRad float64
	// Epoch is the reference time for MeanAnomalyRad and RAANRad.
	Epoch time.Time
}

// Validate reports whether the element set describes a propagatable orbit.
func (e Elements) Validate() error {
	if e.SemiMajorAxisM <= geo.EarthRadius {
		return fmt.Errorf("orbit: semi-major axis %.0f m is inside the Earth", e.SemiMajorAxisM)
	}
	if e.Eccentricity < 0 || e.Eccentricity >= 1 {
		return fmt.Errorf("orbit: eccentricity %.4f outside [0,1)", e.Eccentricity)
	}
	if e.Epoch.IsZero() {
		return fmt.Errorf("orbit: zero epoch")
	}
	return nil
}

// Period returns the Keplerian orbital period.
func (e Elements) Period() time.Duration {
	t := 2 * math.Pi * math.Sqrt(math.Pow(e.SemiMajorAxisM, 3)/geo.EarthMu)
	return time.Duration(t * float64(time.Second))
}

// MeanMotion returns the mean motion in rad/s.
func (e Elements) MeanMotion() float64 {
	return math.Sqrt(geo.EarthMu / math.Pow(e.SemiMajorAxisM, 3))
}

// AltitudeM returns the mean altitude above the equatorial radius for a
// near-circular orbit.
func (e Elements) AltitudeM() float64 {
	return e.SemiMajorAxisM - geo.EarthRadius
}

// NodalPrecessionRate returns the secular J2 drift rate of RAAN in rad/s.
func (e Elements) NodalPrecessionRate() float64 {
	n := e.MeanMotion()
	p := e.SemiMajorAxisM * (1 - e.Eccentricity*e.Eccentricity)
	return -1.5 * n * geo.EarthJ2 * math.Pow(geo.EarthRadius/p, 2) * math.Cos(e.InclinationRad)
}

// ArgPerigeePrecessionRate returns the secular J2 drift rate of the
// argument of perigee in rad/s.
func (e Elements) ArgPerigeePrecessionRate() float64 {
	n := e.MeanMotion()
	p := e.SemiMajorAxisM * (1 - e.Eccentricity*e.Eccentricity)
	s := math.Sin(e.InclinationRad)
	return 0.75 * n * geo.EarthJ2 * math.Pow(geo.EarthRadius/p, 2) * (4 - 5*s*s)
}

// SolveKepler solves Kepler's equation M = E - e*sin(E) for the eccentric
// anomaly E using Newton iteration.
func SolveKepler(meanAnomaly, ecc float64) float64 {
	m := geo.WrapTwoPi(meanAnomaly)
	e := m
	if ecc > 0.8 {
		e = math.Pi
	}
	for i := 0; i < 30; i++ {
		d := (e - ecc*math.Sin(e) - m) / (1 - ecc*math.Cos(e))
		e -= d
		if math.Abs(d) < 1e-12 {
			break
		}
	}
	return e
}

// State is the inertial position and velocity of a satellite at an instant.
type State struct {
	Time     time.Time
	Position geo.Vec3 // ECI meters
	Velocity geo.Vec3 // ECI meters/second
}

// Propagate returns the satellite state at time t using two-body motion
// plus J2 secular precession of RAAN and argument of perigee. Callers that
// sample one orbit repeatedly should build a Propagator once instead.
func Propagate(e Elements, t time.Time) State {
	p := NewPropagator(e)
	return p.State(t)
}

// Propagator propagates one element set. It computes the orbit's
// time-invariant terms once — mean motion, both J2 drift rates, the
// perifocal constants, the inclination's cosine and sine, and the
// draconitic rate — so each sample pays only for the time-varying terms.
// Every term is the same expression Elements evaluates, so a Propagator's
// states are bit-identical to evaluating the element set afresh.
type Propagator struct {
	e           Elements
	n           float64 // mean motion, rad/s
	nodeRate    float64 // J2 RAAN drift, rad/s
	perigeeRate float64 // J2 argument-of-perigee drift, rad/s
	draconitic  float64 // node-to-node rate of the argument of latitude, rad/s
	sqrtOnePlus float64 // sqrt(1+e)
	sqrtOneMin  float64 // sqrt(1-e)
	negMuOverH  float64 // -mu/h, perifocal velocity scale along -sin(nu)
	muOverH     float64 // mu/h, perifocal velocity scale along e+cos(nu)
	cosI, sinI  float64
}

// NewPropagator precomputes the time-invariant terms of e.
func NewPropagator(e Elements) Propagator {
	n := e.MeanMotion()
	perigeeRate := e.ArgPerigeePrecessionRate()
	p := e.SemiMajorAxisM * (1 - e.Eccentricity*e.Eccentricity)
	h := math.Sqrt(geo.EarthMu * p)
	return Propagator{
		e:           e,
		n:           n,
		nodeRate:    e.NodalPrecessionRate(),
		perigeeRate: perigeeRate,
		draconitic:  n + perigeeRate, // Elements.DraconiticRate
		sqrtOnePlus: math.Sqrt(1 + e.Eccentricity),
		sqrtOneMin:  math.Sqrt(1 - e.Eccentricity),
		negMuOverH:  -geo.EarthMu / h,
		muOverH:     geo.EarthMu / h,
		cosI:        math.Cos(e.InclinationRad),
		sinI:        math.Sin(e.InclinationRad),
	}
}

// Elements returns the propagated element set.
func (p *Propagator) Elements() Elements { return p.e }

// DraconiticRate returns Elements.DraconiticRate, precomputed.
func (p *Propagator) DraconiticRate() float64 { return p.draconitic }

// perifocal returns the perifocal-to-ECI rotation, the orbit radius and the
// true anomaly's cosine and sine at time t.
func (p *Propagator) perifocal(t time.Time) (rot mat3, r, cosNu, sinNu float64) {
	dt := t.Sub(p.e.Epoch).Seconds()
	raan := geo.WrapTwoPi(p.e.RAANRad + p.nodeRate*dt)
	argp := geo.WrapTwoPi(p.e.ArgPerigeeRad + p.perigeeRate*dt)
	m := geo.WrapTwoPi(p.e.MeanAnomalyRad + p.n*dt)

	ea := SolveKepler(m, p.e.Eccentricity)
	// True anomaly.
	nu := 2 * math.Atan2(
		p.sqrtOnePlus*math.Sin(ea/2),
		p.sqrtOneMin*math.Cos(ea/2),
	)
	r = p.e.SemiMajorAxisM * (1 - p.e.Eccentricity*math.Cos(ea))
	cosNu, sinNu = math.Cos(nu), math.Sin(nu)
	return perifocalToECI(raan, argp, p.cosI, p.sinI), r, cosNu, sinNu
}

// Position returns the ECI position at time t: State(t).Position without
// the velocity terms.
func (p *Propagator) Position(t time.Time) geo.Vec3 {
	rot, r, cosNu, sinNu := p.perifocal(t)
	return rot.apply(geo.Vec3{X: r * cosNu, Y: r * sinNu})
}

// State returns the satellite state at time t.
func (p *Propagator) State(t time.Time) State {
	rot, r, cosNu, sinNu := p.perifocal(t)
	pos := rot.apply(geo.Vec3{X: r * cosNu, Y: r * sinNu})
	vel := rot.apply(geo.Vec3{
		X: p.negMuOverH * sinNu,
		Y: p.muOverH * (p.e.Eccentricity + cosNu),
	})

	// Secular J2 precession rotates the node about the polar axis and the
	// perigee about the orbit normal; both contribute rigid-rotation terms
	// to the inertial velocity.
	zAxis := geo.Vec3{Z: 1}
	normal := rot.apply(geo.Vec3{Z: 1})
	vel = vel.
		Add(zAxis.Scale(p.nodeRate).Cross(pos)).
		Add(normal.Scale(p.perigeeRate).Cross(pos))

	return State{Time: t, Position: pos, Velocity: vel}
}

// Subpoint returns the geodetic point beneath the satellite at time t.
func (p *Propagator) Subpoint(t time.Time) geo.Geodetic {
	return geo.SubsatellitePoint(p.Position(t), t)
}

// mat3 is a 3x3 rotation matrix stored row-major.
type mat3 [9]float64

func (m mat3) apply(v geo.Vec3) geo.Vec3 {
	return geo.Vec3{
		X: m[0]*v.X + m[1]*v.Y + m[2]*v.Z,
		Y: m[3]*v.X + m[4]*v.Y + m[5]*v.Z,
		Z: m[6]*v.X + m[7]*v.Y + m[8]*v.Z,
	}
}

// perifocalToECI builds the 3-1-3 rotation from the perifocal frame to ECI,
// given the inclination's cosine ci and sine si.
func perifocalToECI(raan, argp, ci, si float64) mat3 {
	cO, sO := math.Cos(raan), math.Sin(raan)
	cw, sw := math.Cos(argp), math.Sin(argp)
	return mat3{
		cO*cw - sO*sw*ci, -cO*sw - sO*cw*ci, sO * si,
		sO*cw + cO*sw*ci, -sO*sw + cO*cw*ci, -cO * si,
		sw * si, cw * si, ci,
	}
}

// SunSynchronous returns circular sun-synchronous elements at the given
// altitude: the inclination is chosen so the J2 nodal precession matches the
// mean motion of the Sun (360 degrees per tropical year), as flown by
// Landsat 8 and Sentinel-2.
func SunSynchronous(altitudeM float64, epoch time.Time) Elements {
	a := geo.EarthRadius + altitudeM
	n := math.Sqrt(geo.EarthMu / math.Pow(a, 3))
	// Required precession: 2*pi per tropical year.
	want := 2 * math.Pi / (365.2422 * geo.SolarDay)
	cosI := -want / (1.5 * n * geo.EarthJ2 * math.Pow(geo.EarthRadius/a, 2))
	if cosI < -1 || cosI > 1 {
		// Altitude too high for sun-synchronicity; fall back to polar.
		cosI = 0
	}
	return Elements{
		SemiMajorAxisM: a,
		InclinationRad: math.Acos(cosI),
		Epoch:          epoch,
	}
}

// DraconiticRate returns the node-to-node angular rate of the argument of
// latitude in rad/s: the mean motion plus the J2 argument-of-perigee drift.
// One draconitic period is the time between successive ascending-node
// crossings, which sets the ground-track repeat geometry.
func (e Elements) DraconiticRate() float64 {
	return e.MeanMotion() + e.ArgPerigeePrecessionRate()
}

// DraconiticPeriod returns the node-to-node orbital period.
func (e Elements) DraconiticPeriod() time.Duration {
	return time.Duration(2 * math.Pi / e.DraconiticRate() * float64(time.Second))
}

// RepeatGroundTrack returns circular sun-synchronous elements whose ground
// track repeats after exactly orbits node-to-node revolutions in days solar
// days. The resonance condition is
//
//	orbits * draconitic period == days * (2*pi / (earth rate - node rate))
//
// and is solved by fixed-point iteration on the semi-major axis, because
// both J2 drift rates depend on the axis through the sun-synchronous
// inclination.
func RepeatGroundTrack(orbits, days int, epoch time.Time) Elements {
	if orbits <= 0 || days <= 0 {
		panic("orbit: non-positive repeat cycle")
	}
	// Keplerian initial guess.
	period := float64(days) * geo.SolarDay / float64(orbits)
	k := period / (2 * math.Pi)
	a := math.Cbrt(geo.EarthMu * k * k)
	for i := 0; i < 50; i++ {
		e := SunSynchronous(a-geo.EarthRadius, epoch)
		rel := geo.EarthRotationRate - e.NodalPrecessionRate()
		targetDrac := float64(orbits) / float64(days) * rel
		n := targetDrac - e.ArgPerigeePrecessionRate()
		next := math.Cbrt(geo.EarthMu / (n * n))
		if math.Abs(next-a) < 1e-9 {
			a = next
			break
		}
		a = next
	}
	return SunSynchronous(a-geo.EarthRadius, epoch)
}

// Landsat8 returns an element set approximating the Landsat 8 orbit:
// circular sun-synchronous with the WRS-2 16-day / 233-orbit repeat cycle
// (inclination ~98.2 deg, period ~98.9 min, altitude ~702.5 km in our
// Kepler+J2 model versus the real 705 km — the real orbit's nodal period
// includes J2 short-period terms that this fidelity class omits).
func Landsat8(epoch time.Time) Elements {
	return RepeatGroundTrack(233, 16, epoch)
}

// GroundSpeed returns the speed of the subsatellite point over the ground in
// m/s for a circular orbit, i.e. the angular rate of the satellite scaled to
// the Earth's surface. Earth rotation is neglected (a few percent effect at
// Landsat inclination).
func GroundSpeed(e Elements) float64 {
	return e.MeanMotion() * geo.EarthRadius
}

// Subpoint returns the geodetic point beneath the satellite at time t.
func Subpoint(e Elements, t time.Time) geo.Geodetic {
	p := NewPropagator(e)
	return p.Subpoint(t)
}

// GroundTrack samples the subsatellite point every step over the window
// [start, start+span) and returns the sampled points in time order.
func GroundTrack(e Elements, start time.Time, span, step time.Duration) []geo.Geodetic {
	if step <= 0 {
		panic("orbit: non-positive ground track step")
	}
	p := NewPropagator(e)
	var pts []geo.Geodetic
	for dt := time.Duration(0); dt < span; dt += step {
		pts = append(pts, p.Subpoint(start.Add(dt)))
	}
	return pts
}

// Constellation returns n copies of base evenly phased in mean anomaly
// around a single orbital plane — the paper's in-plane constellation model
// used in Figures 2 through 5.
func Constellation(base Elements, n int) []Elements {
	sats := make([]Elements, n)
	for i := 0; i < n; i++ {
		e := base
		e.MeanAnomalyRad = geo.WrapTwoPi(base.MeanAnomalyRad + 2*math.Pi*float64(i)/float64(n))
		sats[i] = e
	}
	return sats
}

// WalkerConstellation returns n satellites spread across p planes (RAAN
// evenly spaced over 360 degrees) with in-plane phasing, a simplified
// Walker-delta pattern used for coverage studies (Figure 3).
func WalkerConstellation(base Elements, n, planes int) []Elements {
	if planes <= 0 {
		planes = 1
	}
	sats := make([]Elements, 0, n)
	perPlane := n / planes
	extra := n % planes
	idx := 0
	for pl := 0; pl < planes; pl++ {
		count := perPlane
		if pl < extra {
			count++
		}
		raan := geo.WrapTwoPi(base.RAANRad + 2*math.Pi*float64(pl)/float64(planes))
		for k := 0; k < count; k++ {
			e := base
			e.RAANRad = raan
			e.MeanAnomalyRad = geo.WrapTwoPi(base.MeanAnomalyRad +
				2*math.Pi*float64(k)/float64(max(count, 1)) +
				// Inter-plane phase offset spreads coverage in latitude.
				2*math.Pi*float64(pl)/float64(planes*max(count, 1)))
			sats = append(sats, e)
			idx++
		}
	}
	return sats
}
