package link

import (
	"math"
	"testing"
	"time"
)

func TestDeratedBitsNominalMatchesServed(t *testing.T) {
	r := Radio{RateBps: 100e6}
	start := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	grants := []Grant{
		{Station: 0, Sat: 0, Start: start, Dur: 40 * time.Second},
		{Station: 1, Sat: 1, Start: start.Add(time.Minute), Dur: 95 * time.Second}, // not a whole number of quanta
	}
	got := DeratedBits(r, grants, 2, func(int, time.Time) float64 { return 1 })
	want := PerSatServed(grants, 2)
	for i := range got {
		if math.Abs(got[i]-r.Bits(want[i])) > 1e-6 {
			t.Errorf("sat %d: derated %g bits at unit multiplier, want %g", i, got[i], r.Bits(want[i]))
		}
	}
}

func TestDeratedBitsAppliesTimeVaryingMultiplier(t *testing.T) {
	r := Radio{RateBps: 1e6}
	start := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	fadeStart := start.Add(30 * time.Second)
	grants := []Grant{{Station: 0, Sat: 0, Start: start, Dur: 60 * time.Second}}
	// Half rate for the second half of the grant.
	got := DeratedBits(r, grants, 1, func(_ int, tm time.Time) float64 {
		if !tm.Before(fadeStart) {
			return 0.5
		}
		return 1
	})
	want := r.Bits(30*time.Second) + 0.5*r.Bits(30*time.Second)
	if math.Abs(got[0]-want) > 1e-6 {
		t.Fatalf("derated %g bits, want %g", got[0], want)
	}
}

func TestDeratedBitsPerStation(t *testing.T) {
	r := Radio{RateBps: 1e6}
	start := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	grants := []Grant{
		{Station: 0, Sat: 0, Start: start, Dur: 20 * time.Second},
		{Station: 1, Sat: 0, Start: start.Add(time.Minute), Dur: 20 * time.Second},
	}
	// Station 1 is fully faded; station 0 nominal.
	got := DeratedBits(r, grants, 1, func(st int, _ time.Time) float64 {
		if st == 1 {
			return 0
		}
		return 1
	})
	if want := r.Bits(20 * time.Second); math.Abs(got[0]-want) > 1e-6 {
		t.Fatalf("derated %g bits, want %g (station 1's grant zeroed)", got[0], want)
	}
}
