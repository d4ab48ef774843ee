package station

import (
	"testing"
	"time"

	"kodan/internal/orbit"
)

func TestZeroElevationMaskWidensWindows(t *testing.T) {
	// Dropping the elevation mask to the geometric horizon can only add
	// contact time: every pass starts earlier and ends later, and passes
	// too low for the 5-degree mask may appear outright.
	masked := LandsatSegment()[2]
	horizon := masked
	horizon.MinElevationRad = 0
	e := orbit.Landsat8(epoch)

	mw := ContactWindows([]Station{masked}, e, epoch, 12*time.Hour)[0]
	hw := ContactWindows([]Station{horizon}, e, epoch, 12*time.Hour)[0]
	if len(hw) < len(mw) {
		t.Fatalf("horizon mask found %d passes, 5-degree mask %d", len(hw), len(mw))
	}
	if TotalContact(hw) <= TotalContact(mw) {
		t.Fatalf("horizon contact %v not longer than masked %v", TotalContact(hw), TotalContact(mw))
	}
	// Every masked pass lies inside some horizon pass (edges refined to
	// 1 s, so allow that tolerance).
	const tol = 2 * time.Second
	for i, w := range mw {
		inside := false
		for _, hwin := range hw {
			if !w.Start.Before(hwin.Start.Add(-tol)) && !w.End.After(hwin.End.Add(tol)) {
				inside = true
				break
			}
		}
		if !inside {
			t.Errorf("masked pass %d (%v..%v) not contained in any horizon pass", i, w.Start, w.End)
		}
	}
}

func TestContactWindowsClippedToSpan(t *testing.T) {
	// Windows never extend past the scan interval [start, start+span),
	// even when the satellite is still visible at the end of the scan.
	s := LandsatSegment()[2]
	e := orbit.Landsat8(epoch)
	span := 6 * time.Hour
	end := epoch.Add(span)
	for i, w := range ContactWindows([]Station{s}, e, epoch, span)[0] {
		if w.Start.Before(epoch) {
			t.Errorf("window %d starts %v before scan start", i, w.Start)
		}
		if w.End.After(end) {
			t.Errorf("window %d ends %v after scan end", i, w.End)
		}
		if !w.Start.Before(w.End) {
			t.Errorf("window %d empty or inverted: %v..%v", i, w.Start, w.End)
		}
	}
}

func TestContactWindowStartsMidPass(t *testing.T) {
	// A scan beginning mid-pass reports a window starting exactly at the
	// scan start — the leading edge is the observation boundary, not an
	// extrapolated rise time.
	s := LandsatSegment()[2]
	e := orbit.Landsat8(epoch)
	windows := ContactWindows([]Station{s}, e, epoch, 12*time.Hour)[0]
	if len(windows) == 0 {
		t.Fatal("no windows")
	}
	mid := windows[0].Start.Add(windows[0].Duration() / 2)
	rescanned := ContactWindows([]Station{s}, e, mid, time.Hour)[0]
	if len(rescanned) == 0 {
		t.Fatal("no windows when starting mid-pass")
	}
	if !rescanned[0].Start.Equal(mid) {
		t.Fatalf("mid-pass scan window starts %v, want scan start %v", rescanned[0].Start, mid)
	}
}

func TestZeroDurationWindow(t *testing.T) {
	w := Window{Start: epoch, End: epoch}
	if w.Duration() != 0 {
		t.Fatalf("duration %v", w.Duration())
	}
	if w.Contains(epoch) {
		t.Fatal("empty window contains its start")
	}
}
