package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kodan"
	"kodan/internal/fault"
	"kodan/internal/sim"
)

// legalFlags returns the default command line, which must validate.
func legalFlags() simFlags {
	return simFlags{sats: 4, hours: 24, planes: 1, camera: "ms", groundCost: 0.5, bufferFrames: 64}
}

// TestValidateFlags table-tests the contradictory-combination rejections:
// planner knobs without -plan hybrid, unknown mode strings, out-of-range
// numerics, and the -faults / -fault-intensity exclusion.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name       string
		explicitly []string
		mutate     func(*simFlags)
		wantErr    string // substring; empty = must validate
	}{
		{name: "defaults", mutate: func(f *simFlags) {}},
		{name: "hybrid with knobs", explicitly: []string{"plan", "ground-cost", "buffer-frames"},
			mutate: func(f *simFlags) { f.plan = "hybrid"; f.groundCost = 0.1; f.bufferFrames = 16 }},
		{name: "zero sats", mutate: func(f *simFlags) { f.sats = 0 }, wantErr: "-sats"},
		{name: "zero hours", mutate: func(f *simFlags) { f.hours = 0 }, wantErr: "-hours"},
		{name: "zero planes", mutate: func(f *simFlags) { f.planes = 0 }, wantErr: "-planes"},
		{name: "unknown camera", mutate: func(f *simFlags) { f.camera = "sar" }, wantErr: "-camera"},
		{name: "unknown plan", mutate: func(f *simFlags) { f.plan = "orbit" }, wantErr: "-plan"},
		{name: "ground-cost without hybrid", explicitly: []string{"ground-cost"},
			mutate: func(f *simFlags) { f.groundCost = 1 }, wantErr: "without -plan hybrid"},
		{name: "buffer-frames without hybrid", explicitly: []string{"buffer-frames"},
			mutate: func(f *simFlags) { f.bufferFrames = 8 }, wantErr: "without -plan hybrid"},
		{name: "default knobs without hybrid are fine", mutate: func(f *simFlags) {}},
		{name: "negative ground-cost", explicitly: []string{"plan", "ground-cost"},
			mutate: func(f *simFlags) { f.plan = "hybrid"; f.groundCost = -1 }, wantErr: "-ground-cost"},
		{name: "negative buffer-frames", explicitly: []string{"plan", "buffer-frames"},
			mutate: func(f *simFlags) { f.plan = "hybrid"; f.bufferFrames = -4 }, wantErr: "-buffer-frames"},
		{name: "faults file and intensity", explicitly: []string{"faults", "fault-intensity"},
			mutate: func(f *simFlags) { f.faultsFile = "x.json"; f.faultIntensity = 0.5 }, wantErr: "mutually exclusive"},
		{name: "negative intensity", explicitly: []string{"fault-intensity"},
			mutate: func(f *simFlags) { f.faultIntensity = -0.5 }, wantErr: "-fault-intensity"},
		{name: "quantized without transform-app", explicitly: []string{"quantized"},
			mutate: func(f *simFlags) { f.quantized = true }, wantErr: "without -transform-app"},
		{name: "transform-app out of range", explicitly: []string{"transform-app"},
			mutate: func(f *simFlags) { f.transformApp = 9 }, wantErr: "-transform-app"},
		{name: "quantized transform", explicitly: []string{"transform-app", "quantized"},
			mutate: func(f *simFlags) { f.transformApp = 4; f.quantized = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := legalFlags()
			tc.mutate(&f)
			explicitly := map[string]bool{}
			for _, name := range tc.explicitly {
				explicitly[name] = true
			}
			err := validateFlags(explicitly, f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateSchedule covers the hybrid-mode fault-schedule checks: empty
// schedules and station faults naming stations outside the ground segment
// are rejected, while sat-targeted windows and non-hybrid runs pass.
func TestValidateSchedule(t *testing.T) {
	stations := []string{"Svalbard", "Fairbanks"}
	epoch := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	outage := func(st string) fault.Window {
		return fault.Window{Kind: fault.StationOutage, Station: st, Start: epoch, End: epoch.Add(time.Hour)}
	}
	cases := []struct {
		name    string
		plan    string
		sched   *fault.Schedule
		wantErr string
	}{
		{name: "non-hybrid ignores schedule", plan: "",
			sched: &fault.Schedule{Windows: []fault.Window{outage("Nowhere")}}},
		{name: "hybrid without schedule", plan: "hybrid"},
		{name: "hybrid empty schedule", plan: "hybrid",
			sched: &fault.Schedule{}, wantErr: "empty fault schedule"},
		{name: "hybrid unknown station", plan: "hybrid",
			sched:   &fault.Schedule{Windows: []fault.Window{outage("Atlantis")}},
			wantErr: `unknown station "Atlantis"`},
		{name: "hybrid known station", plan: "hybrid",
			sched: &fault.Schedule{Windows: []fault.Window{outage("Svalbard")}}},
		{name: "hybrid link fade unknown station", plan: "hybrid",
			sched: &fault.Schedule{Windows: []fault.Window{
				{Kind: fault.LinkFade, Station: "Atlantis", Start: epoch, End: epoch.Add(time.Hour), Severity: 0.5},
			}},
			wantErr: "ground segment: Svalbard, Fairbanks"},
		{name: "hybrid sat-targeted windows", plan: "hybrid",
			sched: &fault.Schedule{Windows: []fault.Window{
				{Kind: fault.SensorDropout, Sat: 1, Start: epoch, End: epoch.Add(time.Hour)},
				{Kind: fault.SatelliteReset, Sat: 0, Start: epoch.Add(time.Hour), End: epoch.Add(2 * time.Hour)},
			}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateSchedule(tc.plan, tc.sched, stations)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestReportsMatchGolden pins the -plan hybrid and -transform-app reports
// byte for byte to the output of "kodan-sim -hours 6 -sats 2 -plan hybrid
// -transform-app 4", on a clean run and at -fault-intensity 1, where the
// derated link reshapes both the plan and the deployment.
func TestReportsMatchGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		intensity float64
	}{{"clean", 0}, {"fault", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := t.Context()
			cfg := sim.Landsat8Config(kodan.ReferenceEpoch, 6*time.Hour, 2)
			if tc.intensity > 0 {
				ctx = fault.WithInjector(ctx, fault.NewInjector(generateSchedule(cfg, tc.intensity, 2023)))
			}
			res, err := sim.RunCtx(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := kodan.MissionOf(res)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := printHybridPlan(ctx, &got, res, m, 0.5, 64); err != nil {
				t.Fatal(err)
			}
			if err := printTransform(ctx, &got, m, 4, false); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "report-"+tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("report differs from golden:\n--- got\n%s\n--- want\n%s", got.Bytes(), want)
			}
		})
	}
}
