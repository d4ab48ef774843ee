package fleet

import (
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/nn"
	"kodan/internal/policy"
	"kodan/internal/tiling"
)

// conf builds a confusion matrix from rates over a nominal population.
func conf(tpr, fpr, baseRate float64) nn.Confusion {
	const n = 10000
	pos := int(baseRate * n)
	neg := n - pos
	tp := int(tpr * float64(pos))
	fp := int(fpr * float64(neg))
	return nn.Confusion{TP: tp, FN: pos - tp, FP: fp, TN: neg - fp}
}

func profile(perSide int) policy.TilingProfile {
	return policy.TilingProfile{
		Tiling: tiling.Tiling{PerSide: perSide},
		Contexts: []policy.ContextProfile{
			{TileFrac: 0.30, HighValueFrac: 0.92, Generic: conf(0.90, 0.30, 0.92), Special: conf(0.95, 0.20, 0.92), Merged: conf(0.93, 0.25, 0.92)},
			{TileFrac: 0.35, HighValueFrac: 0.06, Generic: conf(0.80, 0.15, 0.06), Special: conf(0.90, 0.05, 0.06), Merged: conf(0.85, 0.08, 0.06)},
			{TileFrac: 0.35, HighValueFrac: 0.50, Generic: conf(0.85, 0.25, 0.50), Special: conf(0.92, 0.10, 0.50), Merged: conf(0.90, 0.15, 0.50)},
		},
	}
}

func specs(appIdxs ...int) []AppSpec {
	var out []AppSpec
	for _, i := range appIdxs {
		out = append(out, AppSpec{
			Arch:     app.App(i),
			Profiles: []policy.TilingProfile{profile(11), profile(3)},
		})
	}
	return out
}

func platformConfig(kodan bool) Config {
	return Config{
		Sats:         12,
		Target:       hw.Orin15W,
		Deadline:     24 * time.Second,
		CapacityFrac: 0.21,
		Kodan:        kodan,
	}
}

func TestDedicatedSplitsSatellites(t *testing.T) {
	rep, err := DedicatedCtx(t.Context(), specs(1, 4, 7), platformConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, a := range rep.PerApp {
		total += a.Satellites
	}
	if total != 12 {
		t.Fatalf("satellites allocated = %d", total)
	}
	if rep.AppsServed != 3 {
		t.Fatalf("apps served = %d", rep.AppsServed)
	}
}

func TestDedicatedUnevenSplit(t *testing.T) {
	cfg := platformConfig(true)
	cfg.Sats = 7
	rep, err := DedicatedCtx(t.Context(), specs(1, 4, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 2}
	for i, a := range rep.PerApp {
		if a.Satellites != want[i] {
			t.Fatalf("app %d got %d satellites, want %d", i, a.Satellites, want[i])
		}
	}
}

func TestSharedServesAllAppsEverywhere(t *testing.T) {
	rep, err := SharedCtx(t.Context(), specs(1, 4, 7), platformConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.PerApp {
		if a.Satellites != 12 {
			t.Fatalf("app %d on %d satellites", a.App, a.Satellites)
		}
		if a.ValueRate <= 0 {
			t.Fatalf("app %d produced no value", a.App)
		}
	}
}

func TestKodanPlatformNearlyFree(t *testing.T) {
	// With Kodan, time-slicing three applications costs little total value:
	// each app's logic still meets its (3x longer) effective deadline and
	// the downlink stays saturated with dense data.
	s := specs(1, 4, 7)
	cfg := platformConfig(true)
	shared, err := SharedCtx(t.Context(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dedicated, err := DedicatedCtx(t.Context(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eff := Efficiency(shared, dedicated); eff < 0.9 {
		t.Fatalf("Kodan platform efficiency = %.3f, want >= 0.9", eff)
	}
}

func TestDirectPlatformCollapses(t *testing.T) {
	// Direct deployment is already bottlenecked at the single-app deadline
	// on the Orin; the platform's efficiency under Kodan must decisively
	// beat direct deployment's absolute value.
	s := specs(1, 4, 7)
	kodanShared, err := SharedCtx(t.Context(), s, platformConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	directShared, err := SharedCtx(t.Context(), s, platformConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if kodanShared.TotalValueRate <= 1.3*directShared.TotalValueRate {
		t.Fatalf("Kodan platform (%.3f) not well above direct platform (%.3f)",
			kodanShared.TotalValueRate, directShared.TotalValueRate)
	}
}

func TestValidation(t *testing.T) {
	if _, err := DedicatedCtx(t.Context(), specs(1), Config{Sats: 0, Deadline: time.Second}); err == nil {
		t.Fatal("zero satellites accepted")
	}
	if _, err := SharedCtx(t.Context(), nil, platformConfig(true)); err == nil {
		t.Fatal("no apps accepted")
	}
	if _, err := SharedCtx(t.Context(), specs(1), Config{Sats: 1}); err == nil {
		t.Fatal("zero deadline accepted")
	}
}

func TestEfficiencyZeroSafe(t *testing.T) {
	if Efficiency(Report{}, Report{}) != 0 {
		t.Fatal("zero dedicated not handled")
	}
}
