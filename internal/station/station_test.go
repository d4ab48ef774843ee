package station

import (
	"testing"
	"time"

	"kodan/internal/geo"
	"kodan/internal/orbit"
)

var epoch = time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)

func TestLandsatSegment(t *testing.T) {
	seg := LandsatSegment()
	if len(seg) != 3 {
		t.Fatalf("got %d stations", len(seg))
	}
	for _, s := range seg {
		if s.Name == "" {
			t.Error("unnamed station")
		}
		if s.MinElevationRad <= 0 {
			t.Errorf("%s: no elevation mask", s.Name)
		}
	}
	// Svalbard is the high-latitude station.
	if seg[2].Location.LatDeg < 75 {
		t.Errorf("Svalbard latitude %f", seg[2].Location.LatDeg)
	}
}

func TestVisibilityMatchesElevation(t *testing.T) {
	s := LandsatSegment()[0]
	e := orbit.Landsat8(epoch)
	for dt := time.Duration(0); dt < 3*time.Hour; dt += 7 * time.Minute {
		tt := epoch.Add(dt)
		el := s.Elevation(e, tt)
		if got, want := s.Visible(e, tt), el >= s.MinElevationRad; got != want {
			t.Fatalf("visible=%v but elevation=%v deg", got, geo.Rad2Deg(el))
		}
	}
}

func TestPolarStationSeesEveryOrbit(t *testing.T) {
	// A near-polar satellite passes near the poles every revolution, so the
	// Svalbard station (78N) should see it on most revolutions.
	sval := LandsatSegment()[2]
	e := orbit.Landsat8(epoch)
	windows := ContactWindows([]Station{sval}, e, epoch, 24*time.Hour)[0]
	// ~14.6 orbits per day; expect at least 10 passes at a polar station.
	if len(windows) < 10 {
		t.Fatalf("Svalbard passes/day = %d, want >= 10", len(windows))
	}
}

func TestMidLatitudeStationSeesFewerPasses(t *testing.T) {
	seg := LandsatSegment()
	e := orbit.Landsat8(epoch)
	sioux := len(ContactWindows([]Station{seg[0]}, e, epoch, 24*time.Hour)[0])
	sval := len(ContactWindows([]Station{seg[2]}, e, epoch, 24*time.Hour)[0])
	if sioux >= sval {
		t.Fatalf("Sioux Falls %d passes >= Svalbard %d", sioux, sval)
	}
	if sioux < 2 {
		t.Fatalf("Sioux Falls passes/day = %d, want >= 2", sioux)
	}
}

func TestContactWindowShape(t *testing.T) {
	s := LandsatSegment()[2]
	e := orbit.Landsat8(epoch)
	windows := ContactWindows([]Station{s}, e, epoch, 12*time.Hour)[0]
	if len(windows) == 0 {
		t.Fatal("no windows")
	}
	for i, w := range windows {
		// LEO passes last minutes, not hours: 1 to 16 minutes.
		if d := w.Duration(); d < 30*time.Second || d > 16*time.Minute {
			t.Errorf("window %d duration %v", i, d)
		}
		// Windows are ordered and disjoint.
		if i > 0 && !windows[i-1].End.Before(w.Start) {
			t.Errorf("windows %d and %d overlap", i-1, i)
		}
		// Midpoint of each window must be visible.
		mid := w.Start.Add(w.Duration() / 2)
		if !s.Visible(e, mid) {
			t.Errorf("window %d midpoint not visible", i)
		}
	}
}

func TestContactWindowEdgesPrecise(t *testing.T) {
	s := LandsatSegment()[2]
	e := orbit.Landsat8(epoch)
	windows := ContactWindows([]Station{s}, e, epoch, 6*time.Hour)[0]
	if len(windows) == 0 {
		t.Fatal("no windows")
	}
	w := windows[0]
	if w.Start.Equal(epoch) {
		t.Skip("window started before scan; no leading edge to check")
	}
	// Just before the start the satellite is below the mask; just after,
	// above (1 s refinement tolerance, checked at 2 s margin).
	if s.Visible(e, w.Start.Add(-2*time.Second)) {
		t.Error("visible 2 s before window start")
	}
	if !s.Visible(e, w.Start.Add(2*time.Second)) {
		t.Error("not visible 2 s after window start")
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: epoch, End: epoch.Add(time.Minute)}
	if !w.Contains(epoch) {
		t.Error("start not contained")
	}
	if w.Contains(epoch.Add(time.Minute)) {
		t.Error("end contained")
	}
	if !w.Contains(epoch.Add(30 * time.Second)) {
		t.Error("midpoint not contained")
	}
	if w.Duration() != time.Minute {
		t.Errorf("duration %v", w.Duration())
	}
}

func TestTotalContact(t *testing.T) {
	ws := []Window{
		{Start: epoch, End: epoch.Add(2 * time.Minute)},
		{Start: epoch.Add(time.Hour), End: epoch.Add(time.Hour + 3*time.Minute)},
	}
	if got := TotalContact(ws); got != 5*time.Minute {
		t.Fatalf("total = %v", got)
	}
	if TotalContact(nil) != 0 {
		t.Fatal("empty total nonzero")
	}
}

func TestDailyContactBudget(t *testing.T) {
	// The whole Landsat segment should give a single satellite tens of
	// minutes of contact per day — the regime where downlinking a few
	// hundred of ~3600 daily frames saturates (Figure 4).
	e := orbit.Landsat8(epoch)
	var total time.Duration
	for _, s := range LandsatSegment() {
		total += TotalContact(ContactWindows([]Station{s}, e, epoch, 24*time.Hour)[0])
	}
	if total < 30*time.Minute || total > 6*time.Hour {
		t.Fatalf("daily contact = %v, want tens of minutes to a few hours", total)
	}
}
