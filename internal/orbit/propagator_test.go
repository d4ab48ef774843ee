package orbit

import (
	"math"
	"testing"
	"time"

	"kodan/internal/geo"
	"kodan/internal/xrand"
)

// referencePropagate is the per-call propagation Propagator replaced, kept
// verbatim as the oracle: it re-derives the mean motion, both J2 rates and
// the perifocal constants from the elements on every call.
func referencePropagate(e Elements, t time.Time) State {
	dt := t.Sub(e.Epoch).Seconds()
	n := e.MeanMotion()

	raan := geo.WrapTwoPi(e.RAANRad + e.NodalPrecessionRate()*dt)
	argp := geo.WrapTwoPi(e.ArgPerigeeRad + e.ArgPerigeePrecessionRate()*dt)
	m := geo.WrapTwoPi(e.MeanAnomalyRad + n*dt)

	ea := SolveKepler(m, e.Eccentricity)
	nu := 2 * math.Atan2(
		math.Sqrt(1+e.Eccentricity)*math.Sin(ea/2),
		math.Sqrt(1-e.Eccentricity)*math.Cos(ea/2),
	)
	r := e.SemiMajorAxisM * (1 - e.Eccentricity*math.Cos(ea))

	p := e.SemiMajorAxisM * (1 - e.Eccentricity*e.Eccentricity)
	h := math.Sqrt(geo.EarthMu * p)
	cosNu, sinNu := math.Cos(nu), math.Sin(nu)
	posPF := geo.Vec3{X: r * cosNu, Y: r * sinNu}
	velPF := geo.Vec3{
		X: -geo.EarthMu / h * sinNu,
		Y: geo.EarthMu / h * (e.Eccentricity + cosNu),
	}

	rot := referencePerifocalToECI(raan, e.InclinationRad, argp)
	pos := rot.apply(posPF)
	vel := rot.apply(velPF)

	zAxis := geo.Vec3{Z: 1}
	normal := rot.apply(geo.Vec3{Z: 1})
	vel = vel.
		Add(zAxis.Scale(e.NodalPrecessionRate()).Cross(pos)).
		Add(normal.Scale(e.ArgPerigeePrecessionRate()).Cross(pos))

	return State{Time: t, Position: pos, Velocity: vel}
}

func referencePerifocalToECI(raan, inc, argp float64) mat3 {
	cO, sO := math.Cos(raan), math.Sin(raan)
	ci, si := math.Cos(inc), math.Sin(inc)
	cw, sw := math.Cos(argp), math.Sin(argp)
	return mat3{
		cO*cw - sO*sw*ci, -cO*sw - sO*cw*ci, sO * si,
		sO*cw + cO*sw*ci, -sO*sw + cO*cw*ci, -cO * si,
		sw * si, cw * si, ci,
	}
}

// randomElements draws a propagatable element set: LEO to MEO axes,
// eccentricities up to 0.9, any orientation.
func randomElements(rng *xrand.Rand) Elements {
	return Elements{
		SemiMajorAxisM: geo.EarthRadius + rng.Range(300e3, 20000e3),
		Eccentricity:   rng.Range(0, 0.9),
		InclinationRad: rng.Range(0, math.Pi),
		RAANRad:        rng.Range(0, 2*math.Pi),
		ArgPerigeeRad:  rng.Range(0, 2*math.Pi),
		MeanAnomalyRad: rng.Range(0, 2*math.Pi),
		Epoch:          epoch,
	}
}

// TestPropagatorBitIdentical pins Propagator.State and Position to the
// reference propagation with == on every component, over circular and
// eccentric orbits and times up to ±30 days from the epoch.
func TestPropagatorBitIdentical(t *testing.T) {
	rng := xrand.New(16)
	orbits := []Elements{Landsat8(epoch), SunSynchronous(500e3, epoch)}
	for i := 0; i < 60; i++ {
		e := randomElements(rng)
		if i%4 == 0 {
			e.Eccentricity = 0
		}
		orbits = append(orbits, e)
	}
	const month = 30 * 24 * time.Hour
	for oi, e := range orbits {
		p := NewPropagator(e)
		for k := 0; k < 200; k++ {
			tt := e.Epoch.Add(time.Duration(rng.Range(-float64(month), float64(month))))
			want := referencePropagate(e, tt)
			if got := p.State(tt); got != want {
				t.Fatalf("orbit %d at %v: State = %+v, want %+v", oi, tt, got, want)
			}
			if got := p.Position(tt); got != want.Position {
				t.Fatalf("orbit %d at %v: Position = %v, want %v", oi, tt, got, want.Position)
			}
			if got := Propagate(e, tt); got != want {
				t.Fatalf("orbit %d at %v: Propagate = %+v, want %+v", oi, tt, got, want)
			}
		}
	}
}

// TestPropagatorDraconiticRate pins the hoisted rate to the Elements method.
func TestPropagatorDraconiticRate(t *testing.T) {
	rng := xrand.New(3)
	for i := 0; i < 100; i++ {
		e := randomElements(rng)
		p := NewPropagator(e)
		if got, want := p.DraconiticRate(), e.DraconiticRate(); got != want {
			t.Fatalf("elements %+v: DraconiticRate = %v, want %v", e, got, want)
		}
	}
}

func BenchmarkOrbitPropagate(b *testing.B) {
	e := Landsat8(time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC))
	t0 := e.Epoch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Propagate(e, t0.Add(time.Duration(i)*time.Second))
	}
}
