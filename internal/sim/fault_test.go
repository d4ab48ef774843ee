package sim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"kodan/internal/fault"
	"kodan/internal/link"
	"kodan/internal/telemetry"
)

// ledger renders a result's per-satellite numbers, so two runs can be
// compared byte-for-byte.
func ledger(res *Result) string {
	out := ""
	bits := res.DownlinkBits()
	for i := range res.Captures {
		out += fmt.Sprintf("sat %d: frames=%d served=%v bits=%.3f\n",
			i, len(res.Captures[i]), res.Served[i], bits[i])
	}
	out += fmt.Sprintf("grants=%d scenes=%d capacity=%.6f\n",
		len(res.Grants), res.UniqueScenes(), res.FrameCapacity())
	return out
}

// testSchedule builds a mixed fault schedule over the first simulated hours.
func testSchedule() *fault.Schedule {
	return &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.StationOutage, Station: "Svalbard", Start: epoch, End: epoch.Add(3 * time.Hour)},
		{Kind: fault.LinkFade, Station: "Svalbard", Start: epoch.Add(3 * time.Hour), End: epoch.Add(6 * time.Hour), Severity: 6},
		{Kind: fault.SensorDropout, Sat: 0, Start: epoch, End: epoch.Add(2 * time.Hour)},
		{Kind: fault.SatelliteReset, Sat: 1, Start: epoch.Add(1 * time.Hour), End: epoch.Add(4 * time.Hour)},
	}}
}

func TestNilInjectorByteIdenticalToBaseline(t *testing.T) {
	cfg := Landsat8Config(epoch, 6*time.Hour, 2)
	base, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An explicitly attached nil injector and an empty schedule must both
	// reproduce the baseline ledger exactly.
	for name, ctx := range map[string]context.Context{
		"nil injector":   fault.WithInjector(context.Background(), nil),
		"empty schedule": fault.WithInjector(context.Background(), fault.NewInjector(&fault.Schedule{})),
	} {
		res, err := RunCtx(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ledger(res), ledger(base); got != want {
			t.Errorf("%s: ledger diverged from baseline\n--- baseline:\n%s--- got:\n%s", name, want, got)
		}
		if res.FadedBits != nil {
			t.Errorf("%s: FadedBits set on a fade-free run", name)
		}
	}
}

func TestFaultedRunDeterministicAcrossWorkers(t *testing.T) {
	inj := fault.NewInjector(testSchedule())
	run := func(workers int) string {
		cfg := Landsat8Config(epoch, 6*time.Hour, 2)
		cfg.Workers = workers
		res, err := RunCtx(fault.WithInjector(context.Background(), inj), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ledger(res)
	}
	base := run(1)
	if got := run(4); got != base {
		t.Fatalf("faulted ledger diverged across worker counts\n--- workers=1:\n%s--- workers=4:\n%s", base, got)
	}
}

func TestFaultsDegradeTheRun(t *testing.T) {
	cfg := Landsat8Config(epoch, 6*time.Hour, 2)
	base, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithProbe(context.Background(), telemetry.Probe{Metrics: reg})
	ctx = fault.WithInjector(ctx, fault.NewInjector(testSchedule()))
	res, err := RunCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if res.FramesObserved() >= base.FramesObserved() {
		t.Errorf("sensor dropout + reset did not reduce frames: %d >= %d",
			res.FramesObserved(), base.FramesObserved())
	}
	if res.FadedBits == nil {
		t.Fatal("link fade did not populate FadedBits")
	}
	var faded, nominal float64
	for i := range res.Served {
		faded += res.DownlinkBits()[i]
		nominal += res.Config.Radio.Bits(res.Served[i])
	}
	if faded >= nominal {
		t.Errorf("6 dB fade did not reduce downlink bits: %g >= %g", faded, nominal)
	}

	snap := reg.Snapshot()
	for _, ctr := range []string{"sim.fault.captures_dropped", "sim.fault.contact_cut_seconds", "sim.fault.faded_bits"} {
		if snap.Counters[ctr] <= 0 {
			t.Errorf("counter %s = %d, want > 0", ctr, snap.Counters[ctr])
		}
	}
}

func TestAllStationsDownDegenerateSchedule(t *testing.T) {
	cfg := Landsat8Config(epoch, 3*time.Hour, 2)
	var ws []fault.Window
	for _, st := range cfg.Stations {
		ws = append(ws, fault.Window{Kind: fault.StationOutage, Station: st.Name, Start: epoch, End: epoch.Add(3 * time.Hour)})
	}
	ctx := fault.WithInjector(context.Background(), fault.NewInjector(&fault.Schedule{Windows: ws}))
	res, err := RunCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grants) != 0 {
		t.Errorf("all stations down still granted %d intervals", len(res.Grants))
	}
	if got := link.TotalServed(res.Grants); got != 0 {
		t.Errorf("all stations down still served %v", got)
	}
	// The constellation still observes: outages hit the ground segment only.
	if res.FramesObserved() == 0 {
		t.Error("station outages should not stop captures")
	}
}

func TestSingleStationOutageRebalancesLeastServed(t *testing.T) {
	// With one station down, its windows disappear and the least-served
	// allocator redistributes the remaining stations' time: every satellite
	// keeps a share, and total served shrinks rather than collapsing onto
	// one satellite.
	cfg := Landsat8Config(epoch, 24*time.Hour, 2)
	base, err := RunCtx(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.StationOutage, Station: "Svalbard", Start: epoch, End: epoch.Add(24 * time.Hour)},
	}}
	res, err := RunCtx(fault.WithInjector(context.Background(), fault.NewInjector(out)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := link.TotalServed(res.Grants), link.TotalServed(base.Grants); got >= want {
		t.Fatalf("losing Svalbard did not shrink total served: %v >= %v", got, want)
	}
	for i, d := range res.Served {
		if d == 0 {
			t.Errorf("sat %d starved after a single-station outage (least-served should rebalance)", i)
		}
	}
}
