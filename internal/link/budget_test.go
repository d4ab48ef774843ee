package link

import (
	"testing"
	"testing/quick"
	"time"

	"kodan/internal/orbit"
	"kodan/internal/station"
)

func TestAdaptiveRateSteps(t *testing.T) {
	a := Landsat8AdaptiveRadio()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Full rate at and below the reference range.
	if got := a.RateAt(800e3); got != 384e6 {
		t.Fatalf("near rate = %v", got)
	}
	if got := a.RateAt(1200e3); got != 384e6 {
		t.Fatalf("ref rate = %v", got)
	}
	// One 3 dB step (sqrt(2) in range) halves the rate.
	if got := a.RateAt(1200e3 * 1.41); got != 192e6 {
		t.Fatalf("one-step rate = %v", got)
	}
	// Beyond the last step the link drops.
	if got := a.RateAt(6000e3); got != 0 {
		t.Fatalf("far rate = %v", got)
	}
}

func TestAdaptiveRateMonotone(t *testing.T) {
	a := Landsat8AdaptiveRadio()
	if err := quick.Check(func(r1, r2 uint32) bool {
		d1 := float64(r1%5000)*1e3 + 1
		d2 := float64(r2%5000)*1e3 + 1
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return a.RateAt(d1) >= a.RateAt(d2)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSlantRangePhysical(t *testing.T) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	e := orbit.Landsat8(epoch)
	st := station.LandsatSegment()[2] // Svalbard
	// The slant range is never below the orbit altitude nor absurdly far.
	for dt := time.Duration(0); dt < 2*time.Hour; dt += 5 * time.Minute {
		r := SlantRange(e, st, epoch.Add(dt))
		if r < 690e3 || r > 14000e3 {
			t.Fatalf("slant range %v m at %v", r, dt)
		}
	}
}

func TestGrantBitsAdaptiveVsConstant(t *testing.T) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	e := orbit.Landsat8(epoch)
	st := station.LandsatSegment()[2]
	windows := station.ContactWindows([]station.Station{st}, e, epoch, 24*time.Hour, 30*time.Second)[0]
	if len(windows) == 0 {
		t.Fatal("no passes")
	}
	a := Landsat8AdaptiveRadio()
	constant := Landsat8Radio()
	var adaptive, fixed float64
	for _, w := range windows {
		g := Grant{Start: w.Start, Dur: w.Duration()}
		adaptive += a.GrantBits(e, st, g, 10*time.Second)
		fixed += constant.Bits(w.Duration())
	}
	// The adaptive link delivers less than the constant-peak-rate model
	// (pass edges run at reduced rates) but not catastrophically less.
	if adaptive >= fixed {
		t.Fatalf("adaptive %.2e not below constant %.2e", adaptive, fixed)
	}
	if adaptive < 0.2*fixed {
		t.Fatalf("adaptive %.2e below 20%% of constant %.2e — budget too pessimistic", adaptive, fixed)
	}
}

func TestGrantBitsPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	Landsat8AdaptiveRadio().GrantBits(orbit.Landsat8(epoch), station.LandsatSegment()[0],
		Grant{Start: epoch, Dur: time.Minute}, 0)
}

func TestAdaptiveValidate(t *testing.T) {
	bad := []AdaptiveRadio{
		{PeakRateBps: 0, RefRangeM: 1, Steps: 1},
		{PeakRateBps: 1, RefRangeM: 0, Steps: 1},
		{PeakRateBps: 1, RefRangeM: 1, Steps: 0},
	}
	for i, a := range bad {
		if a.Validate() == nil {
			t.Errorf("case %d validated", i)
		}
	}
}
