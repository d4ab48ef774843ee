package sim

import (
	"testing"
	"time"

	"kodan/internal/sense"
)

var epoch = time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := Landsat8Config(epoch, time.Hour, 1)
	cfg.Satellites = 0
	if _, err := RunCtx(t.Context(), cfg); err == nil {
		t.Fatal("zero satellites accepted")
	}
	cfg = Landsat8Config(epoch, 0, 1)
	if _, err := RunCtx(t.Context(), cfg); err == nil {
		t.Fatal("zero span accepted")
	}
}

func TestSingleSatelliteOrbitPeriodAccounting(t *testing.T) {
	// Over one orbit revolution, a satellite observes ~248 frames (one row
	// pitch each) — the denominator in Figure 2's "2% downlinked" claim.
	cfg := Landsat8Config(epoch, 99*time.Minute, 1)
	res, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.FramesObserved(); n < 240 || n > 256 {
		t.Fatalf("frames per orbit = %d, want ~248", n)
	}
}

func TestHyperspectralOrbitDownlinkMatchesFigure2(t *testing.T) {
	// Figure 2: with hyperspectral 10K frames, the ground segment receives
	// about 2% of a lone satellite's observations per revolution (~5 of
	// ~248 frames).
	cfg := Landsat8Config(epoch, 99*time.Minute, 1)
	cfg.Camera = sense.Landsat8Hyper()
	res, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := res.FrameCapacity() / float64(res.FramesObserved())
	if frac < 0.005 || frac > 0.05 {
		t.Fatalf("downlink fraction per orbit = %.3f, want ~0.02", frac)
	}
}

func TestMultiSatCapturesScaleLinearly(t *testing.T) {
	one, err := RunCtx(t.Context(), Landsat8Config(epoch, 2*time.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunCtx(t.Context(), Landsat8Config(epoch, 2*time.Hour, 4))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 4*one.FramesObserved()-8, 4*one.FramesObserved()+8
	if n := four.FramesObserved(); n < lo || n > hi {
		t.Fatalf("4-sat frames = %d, want ~%d", n, 4*one.FramesObserved())
	}
}

func TestDownlinkSaturates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour allocation sweep")
	}
	// Total downlinked frames must grow sublinearly and eventually flatten
	// as the population saturates the ground segment (Figure 2).
	span := 6 * time.Hour
	var caps []float64
	for _, n := range []int{1, 4, 16, 48} {
		res, err := RunCtx(t.Context(), Landsat8Config(epoch, span, n))
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, res.FrameCapacity())
	}
	if !(caps[1] > caps[0] && caps[2] > caps[1]) {
		t.Fatalf("capacity not increasing: %v", caps)
	}
	// Saturation: going 16 -> 48 satellites (3x) should grow capacity far
	// less than 3x.
	if caps[3] > caps[2]*2 {
		t.Fatalf("no saturation: 16 sats %.0f, 48 sats %.0f", caps[2], caps[3])
	}
}

func TestServedNeverExceedsStationTime(t *testing.T) {
	res, err := RunCtx(t.Context(), Landsat8Config(epoch, 3*time.Hour, 8))
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, d := range res.Served {
		total += d
	}
	// 3 stations x 3 hours is a hard upper bound on granted time.
	if total > 9*time.Hour {
		t.Fatalf("granted %v exceeds station time", total)
	}
}

func TestUniqueScenesBounded(t *testing.T) {
	res, err := RunCtx(t.Context(), Landsat8Config(epoch, 3*time.Hour, 2))
	if err != nil {
		t.Fatal(err)
	}
	u := res.UniqueScenes()
	if u <= 0 || u > res.FramesObserved() {
		t.Fatalf("unique scenes = %d of %d observed", u, res.FramesObserved())
	}
}

func TestWalkerPlanesConfig(t *testing.T) {
	cfg := Landsat8Config(epoch, time.Hour, 6)
	cfg.Planes = 3
	res, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Orbits) != 6 {
		t.Fatalf("orbit count = %d", len(res.Orbits))
	}
	raans := map[float64]bool{}
	for _, e := range res.Orbits {
		raans[e.RAANRad] = true
	}
	if len(raans) != 3 {
		t.Fatalf("distinct planes = %d, want 3", len(raans))
	}
}

func TestDeterministicResults(t *testing.T) {
	a, err := RunCtx(t.Context(), Landsat8Config(epoch, 2*time.Hour, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(t.Context(), Landsat8Config(epoch, 2*time.Hour, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.FramesObserved() != b.FramesObserved() || a.FrameCapacity() != b.FrameCapacity() {
		t.Fatal("simulation not deterministic")
	}
}

func TestDailyBentPipeFractionMatchesFigure4(t *testing.T) {
	if testing.Short() {
		t.Skip("full-day simulation")
	}
	// Figure 4: a lone Landsat satellite can downlink ~21% of its ~3600
	// daily observations with the multispectral payload.
	res, err := RunCtx(t.Context(), Landsat8Config(epoch, 24*time.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	obs := float64(res.FramesObserved())
	if obs < 3300 || obs > 3900 {
		t.Fatalf("frames/day = %.0f", obs)
	}
	frac := res.FrameCapacity() / obs
	if frac < 0.15 || frac > 0.28 {
		t.Fatalf("bent-pipe downlink fraction = %.3f, want ~0.21", frac)
	}
}

func TestRandomPhasesDeterministicAndSpread(t *testing.T) {
	cfg := Landsat8Config(epoch, time.Hour, 6)
	cfg.RandomPhases = true
	cfg.PhaseSeed = 42
	a, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FramesObserved() != b.FramesObserved() || a.UniqueScenes() != b.UniqueScenes() {
		t.Fatal("random phasing not deterministic for a fixed seed")
	}
	// Phases actually differ across satellites.
	phases := map[float64]bool{}
	for _, e := range a.Orbits {
		phases[e.MeanAnomalyRad] = true
	}
	if len(phases) != 6 {
		t.Fatalf("distinct phases = %d", len(phases))
	}
	// A different seed gives a different constellation.
	cfg.PhaseSeed = 43
	c, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range c.Orbits {
		if c.Orbits[i].MeanAnomalyRad != a.Orbits[i].MeanAnomalyRad {
			same = false
		}
	}
	if same {
		t.Fatal("seed change did not move phases")
	}
}

func TestRandomPhasesDefaultSeed(t *testing.T) {
	cfg := Landsat8Config(epoch, 30*time.Minute, 2)
	cfg.RandomPhases = true // PhaseSeed zero defaults to 1
	if _, err := RunCtx(t.Context(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDownlinkBitsMatchesServed(t *testing.T) {
	res, err := RunCtx(t.Context(), Landsat8Config(epoch, 2*time.Hour, 2))
	if err != nil {
		t.Fatal(err)
	}
	bits := res.DownlinkBits()
	for i, d := range res.Served {
		if want := res.Config.Radio.Bits(d); bits[i] != want {
			t.Fatalf("sat %d bits %v, want %v", i, bits[i], want)
		}
	}
	per := res.FrameCapacityPerSat()
	var total float64
	for _, p := range per {
		total += p
	}
	if diff := total - res.FrameCapacity(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("per-sat capacities (%v) do not sum to total (%v)", total, res.FrameCapacity())
	}
}
