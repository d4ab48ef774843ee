package wrs

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"kodan/internal/orbit"
)

var epoch = time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)

func TestGridDimensions(t *testing.T) {
	g := Landsat8Grid()
	if g.Paths() != 233 || g.Rows() != 248 {
		t.Fatalf("grid %dx%d", g.Paths(), g.Rows())
	}
	if g.TotalScenes() != 57784 {
		t.Fatalf("total scenes = %d, want 57784", g.TotalScenes())
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g := Landsat8Grid()
	if err := quick.Check(func(raw uint32) bool {
		i := int(raw) % g.TotalScenes()
		return g.Index(g.SceneOf(i)) == i
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIndexPanicsOutsideGrid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-grid scene")
		}
	}()
	Landsat8Grid().Index(Scene{Path: 233, Row: 0})
}

func TestFramePeriodNearPaperDeadline(t *testing.T) {
	g := Landsat8Grid()
	e := orbit.Landsat8(epoch)
	fp := g.FramePeriod(e).Seconds()
	// Paper: a new frame every ~22 s; full-row pitch gives ~24 s.
	if fp < 21 || fp > 26 {
		t.Fatalf("frame period = %.1f s, want 21-26", fp)
	}
}

func TestFramesPerDayNearPaper(t *testing.T) {
	// Figure 4: a satellite observes ~3600 frames per day.
	g := Landsat8Grid()
	e := orbit.Landsat8(epoch)
	perDay := 86400 / g.FramePeriod(e).Seconds()
	if perDay < 3300 || perDay > 3900 {
		t.Fatalf("frames/day = %.0f, want ~3600", perDay)
	}
}

func TestAscendingNodeTime(t *testing.T) {
	e := orbit.Landsat8(epoch)
	e.MeanAnomalyRad = 1.0
	p := orbit.NewPropagator(e)
	tt := epoch.Add(1000 * time.Second)
	tan := AscendingNodeTime(&p, tt)
	if tan.After(tt) {
		t.Fatal("node time in the future")
	}
	// At the node time, the satellite should be over the equator.
	sub := orbit.Subpoint(e, tan)
	if math.Abs(sub.LatDeg) > 0.5 {
		t.Fatalf("latitude at node = %.3f deg", sub.LatDeg)
	}
	// And the node time must be within one period of t.
	if tt.Sub(tan) > e.Period() {
		t.Fatalf("node %v more than a period before %v", tan, tt)
	}
}

func TestSceneAtPathConstantWithinRevolution(t *testing.T) {
	g := Landsat8Grid()
	e := orbit.Landsat8(epoch)
	p := orbit.NewPropagator(e)
	tan := AscendingNodeTime(&p, epoch.Add(30*time.Minute))
	first := g.SceneAt(&p, tan.Add(5*time.Second))
	// Sample strictly inside the same revolution.
	for frac := 0.1; frac < 0.95; frac += 0.1 {
		dt := time.Duration(frac * float64(e.Period()))
		s := g.SceneAt(&p, tan.Add(dt))
		if s.Path != first.Path {
			t.Fatalf("path changed mid-revolution: %v -> %v at %.0f%%", first, s, frac*100)
		}
	}
}

func TestSceneAtRowsAdvanceMonotonically(t *testing.T) {
	g := Landsat8Grid()
	e := orbit.Landsat8(epoch)
	p := orbit.NewPropagator(e)
	tan := AscendingNodeTime(&p, epoch.Add(time.Hour))
	prev := -1
	fp := g.FramePeriod(e)
	for i := 0; i < g.Rows(); i++ {
		s := g.SceneAt(&p, tan.Add(time.Duration(i)*fp+fp/2))
		if s.Row != prev+1 {
			t.Fatalf("row %d followed row %d at frame %d", s.Row, prev, i)
		}
		prev = s.Row
	}
	if prev != g.Rows()-1 {
		t.Fatalf("final row %d", prev)
	}
}

func TestSuccessiveOrbitsChangePath(t *testing.T) {
	g := Landsat8Grid()
	e := orbit.Landsat8(epoch)
	p := orbit.NewPropagator(e)
	s0 := g.SceneAt(&p, epoch.Add(10*time.Second))
	s1 := g.SceneAt(&p, epoch.Add(10*time.Second).Add(e.Period()))
	if s0.Path == s1.Path {
		t.Fatalf("path did not advance across revolutions: %v vs %v", s0, s1)
	}
	// WRS-2: node longitude shifts ~24.7 degrees west per revolution, which
	// is ~16 path indices on a 233-path grid.
	diff := (s0.Path - s1.Path + g.Paths()) % g.Paths()
	if diff != 16 && diff != 17 && diff != g.Paths()-16 && diff != g.Paths()-17 {
		t.Fatalf("path stride = %d, want ~16 (mod 233)", diff)
	}
}

func TestSixteenDayRepeatCoversMostPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("16-day sweep")
	}
	g := Landsat8Grid()
	e := orbit.Landsat8(epoch)
	p := orbit.NewPropagator(e)
	cov := NewCoverage(g)
	fp := g.FramePeriod(e)
	end := epoch.Add(16 * 24 * time.Hour)
	for tt := epoch; tt.Before(end); tt = tt.Add(fp) {
		cov.Mark(g.SceneAt(&p, tt.Add(fp/2)))
	}
	// The analytic grid will not match USGS numbering exactly, but a single
	// satellite must reach nearly all paths over its 16-day repeat cycle.
	if got := cov.PathsCovered(); got < 200 {
		t.Fatalf("paths covered in 16 days = %d, want >= 200", got)
	}
}

func TestCoverageAccounting(t *testing.T) {
	g := NewGrid(3, 4)
	cov := NewCoverage(g)
	if cov.Count() != 0 || cov.Complete() {
		t.Fatal("fresh coverage not empty")
	}
	if !cov.Mark(Scene{Path: 1, Row: 2}) {
		t.Fatal("first mark not new")
	}
	if cov.Mark(Scene{Path: 1, Row: 2}) {
		t.Fatal("second mark reported new")
	}
	if cov.Count() != 1 || !cov.Seen(Scene{Path: 1, Row: 2}) {
		t.Fatal("count/seen wrong")
	}
	if cov.PathsCovered() != 1 {
		t.Fatalf("paths covered = %d", cov.PathsCovered())
	}
	for p := 0; p < 3; p++ {
		for r := 0; r < 4; r++ {
			cov.Mark(Scene{Path: p, Row: r})
		}
	}
	if !cov.Complete() || cov.Count() != 12 || cov.PathsCovered() != 3 {
		t.Fatal("full coverage not detected")
	}
}

func TestNewGridPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGrid(0, 10)
}
