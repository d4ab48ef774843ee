package wrs

import (
	"math"
	"testing"
	"time"

	"kodan/internal/geo"
	"kodan/internal/orbit"
)

// referenceSceneAt is the scene lookup SceneAt replaced, kept verbatim as
// the oracle: it re-derives the draconitic rate from the elements and reads
// the node longitude from a full orbit.Subpoint geodetic solve.
func referenceSceneAt(g Grid, e orbit.Elements, t time.Time) Scene {
	u := referenceArgumentOfLatitude(e, t)
	row := int(u / (2 * math.Pi) * float64(g.rows))
	if row >= g.rows {
		row = g.rows - 1
	}
	tan := referenceAscendingNodeTime(e, t)
	nodeLon := orbit.Subpoint(e, tan).LonDeg
	frac := geo.WrapTwoPi(geo.Deg2Rad(nodeLon)) / (2 * math.Pi)
	path := int(frac * float64(g.paths))
	if path >= g.paths {
		path = g.paths - 1
	}
	return Scene{Path: path, Row: row}
}

func referenceArgumentOfLatitude(e orbit.Elements, t time.Time) float64 {
	dt := t.Sub(e.Epoch).Seconds()
	u0 := e.MeanAnomalyRad + e.ArgPerigeeRad
	return geo.WrapTwoPi(u0 + e.DraconiticRate()*dt)
}

func referenceAscendingNodeTime(e orbit.Elements, t time.Time) time.Time {
	u := referenceArgumentOfLatitude(e, t)
	back := u / e.DraconiticRate()
	return t.Add(-time.Duration(back * float64(time.Second)))
}

// TestSceneAtMatchesReference pins SceneAt and AscendingNodeTime to the
// reference lookup at every frame midpoint of 14 days of captures, for the
// Landsat orbit and a phased, precessed copy of it.
func TestSceneAtMatchesReference(t *testing.T) {
	g := Landsat8Grid()
	base := orbit.Landsat8(epoch)
	shifted := base
	shifted.MeanAnomalyRad = 2.5
	shifted.RAANRad = 4.1
	fp := g.FramePeriod(base)
	end := epoch.Add(14 * 24 * time.Hour)
	for _, e := range []orbit.Elements{base, shifted} {
		p := orbit.NewPropagator(e)
		for tt := epoch; tt.Before(end); tt = tt.Add(fp) {
			mid := tt.Add(fp / 2)
			if got, want := g.SceneAt(&p, mid), referenceSceneAt(g, e, mid); got != want {
				t.Fatalf("elements %+v at %v: SceneAt = %v, want %v", e, mid, got, want)
			}
			if got, want := AscendingNodeTime(&p, mid), referenceAscendingNodeTime(e, mid); !got.Equal(want) {
				t.Fatalf("elements %+v at %v: AscendingNodeTime = %v, want %v", e, mid, got, want)
			}
		}
	}
}
