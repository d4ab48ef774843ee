package fleet

import (
	"context"
	"math"
	"testing"
	"time"

	"kodan/internal/fault"
)

func TestDegradedNilDownMatchesHealthy(t *testing.T) {
	sp, cfg := specs(1, 4, 7), platformConfig(true)
	ded, err := DedicatedCtx(t.Context(), sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dedDeg, err := DedicatedDegradedCtx(context.Background(), sp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ded.TotalValueRate-dedDeg.TotalValueRate) > 1e-12 {
		t.Errorf("nil down: degraded dedicated %g != healthy %g", dedDeg.TotalValueRate, ded.TotalValueRate)
	}
	sh, err := SharedCtx(t.Context(), sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shDeg, err := SharedDegradedCtx(context.Background(), sp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sh.TotalValueRate-shDeg.TotalValueRate) > 1e-12 {
		t.Errorf("nil down: degraded shared %g != healthy %g", shDeg.TotalValueRate, sh.TotalValueRate)
	}
}

func TestDedicatedLosesAnAppSharedDoesNot(t *testing.T) {
	sp, cfg := specs(1, 4, 7), platformConfig(true)
	// 12 sats over 3 apps: partitions [0,4), [4,8), [8,12). Take out all
	// of app 1's partition.
	down := make([]bool, cfg.Sats)
	for i := 0; i < 4; i++ {
		down[i] = true
	}
	ded, err := DedicatedDegradedCtx(context.Background(), sp, cfg, down)
	if err != nil {
		t.Fatal(err)
	}
	if ded.AppsServed != 2 {
		t.Errorf("dedicated with one partition down serves %d apps, want 2", ded.AppsServed)
	}
	if ded.PerApp[0].ValueRate != 0 || ded.PerApp[0].Satellites != 0 {
		t.Errorf("downed partition's app kept value: %+v", ded.PerApp[0])
	}

	sh, err := SharedDegradedCtx(context.Background(), sp, cfg, down)
	if err != nil {
		t.Fatal(err)
	}
	if sh.AppsServed != 3 {
		t.Errorf("shared with 4 sats down serves %d apps, want all 3", sh.AppsServed)
	}
	healthy, err := SharedCtx(t.Context(), sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := healthy.TotalValueRate * 8.0 / 12.0
	if math.Abs(sh.TotalValueRate-want) > 1e-9 {
		t.Errorf("shared degradation not linear: %g, want %g", sh.TotalValueRate, want)
	}
}

func TestDegradedZeroSatellitesRejected(t *testing.T) {
	cfg := platformConfig(true)
	cfg.Sats = 0
	if _, err := DedicatedDegradedCtx(context.Background(), specs(1), cfg, nil); err == nil {
		t.Fatal("zero satellites accepted")
	}
	if _, err := SharedDegradedCtx(context.Background(), specs(1), cfg, nil); err == nil {
		t.Fatal("zero satellites accepted")
	}
}

func TestSingleMemberFleetSharedEqualsDedicated(t *testing.T) {
	// One satellite, one application: the two strategies describe the same
	// physical system and must report the same value.
	sp := specs(4)
	cfg := platformConfig(true)
	cfg.Sats = 1
	ded, err := DedicatedCtx(t.Context(), sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := SharedCtx(t.Context(), sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ded.TotalValueRate-sh.TotalValueRate) > 1e-12 {
		t.Fatalf("single-member fleet: dedicated %g != shared %g", ded.TotalValueRate, sh.TotalValueRate)
	}
	if ded.PerApp[0].Satellites != 1 || sh.PerApp[0].Satellites != 1 {
		t.Fatalf("single member not assigned: dedicated=%d shared=%d",
			ded.PerApp[0].Satellites, sh.PerApp[0].Satellites)
	}
}

func TestWholeFleetDownServesNothing(t *testing.T) {
	sp, cfg := specs(1, 4), platformConfig(true)
	down := make([]bool, cfg.Sats)
	for i := range down {
		down[i] = true
	}
	ded, err := DedicatedDegradedCtx(context.Background(), sp, cfg, down)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := SharedDegradedCtx(context.Background(), sp, cfg, down)
	if err != nil {
		t.Fatal(err)
	}
	if ded.TotalValueRate != 0 || ded.AppsServed != 0 {
		t.Errorf("dedicated with whole fleet down: %+v", ded)
	}
	if sh.TotalValueRate != 0 || sh.AppsServed != 0 {
		t.Errorf("shared with whole fleet down: %+v", sh)
	}
}

func TestDownSatsFromSchedule(t *testing.T) {
	epoch := time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)
	s := &fault.Schedule{Windows: []fault.Window{
		// Sat 0 down half the day; sat 2 down one hour.
		{Kind: fault.SatelliteReset, Sat: 0, Start: epoch, End: epoch.Add(12 * time.Hour)},
		{Kind: fault.SatelliteReset, Sat: 2, Start: epoch, End: epoch.Add(time.Hour)},
	}}
	down := DownSats(fault.NewInjector(s), 3, epoch, 24*time.Hour, 0.25)
	if !down[0] || down[1] || down[2] {
		t.Fatalf("DownSats = %v, want [true false false] at 25%% floor", down)
	}
	if got := DownSats(nil, 3, epoch, 24*time.Hour, 0.25); got[0] || got[1] || got[2] {
		t.Fatalf("nil injector marked satellites down: %v", got)
	}
}
