package fault

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

var epoch = time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)

func genConfig(intensity float64) GenConfig {
	return GenConfig{
		Seed:      7,
		Start:     epoch,
		Span:      24 * time.Hour,
		Intensity: intensity,
		Stations:  []string{"Sioux Falls", "Gilmore Creek", "Svalbard"},
		Sats:      4,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(genConfig(0.7))
	b := Generate(genConfig(0.7))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical GenConfig produced different schedules")
	}
	if len(a.Windows) == 0 {
		t.Fatal("intensity 0.7 generated no windows")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	// A different seed must actually change the schedule.
	cfg := genConfig(0.7)
	cfg.Seed = 8
	if reflect.DeepEqual(a, Generate(cfg)) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestGenerateZeroIntensityEmpty(t *testing.T) {
	s := Generate(genConfig(0))
	if len(s.Windows) != 0 {
		t.Fatalf("intensity 0 generated %d windows, want 0", len(s.Windows))
	}
	if NewInjector(s) != nil {
		t.Fatal("empty schedule built a non-nil injector")
	}
}

func TestGenerateWindowsInsideSpan(t *testing.T) {
	cfg := genConfig(1)
	s := Generate(cfg)
	end := cfg.Start.Add(cfg.Span)
	for i, w := range s.Windows {
		if w.Start.Before(cfg.Start) || w.End.After(end) {
			t.Errorf("window %d [%v, %v) escapes span [%v, %v)", i, w.Start, w.End, cfg.Start, end)
		}
	}
	counts := s.CountByKind()
	for _, k := range []Kind{StationOutage, LinkFade, SensorDropout, ComputeThrottle, SatelliteReset} {
		if counts[k] == 0 {
			t.Errorf("intensity 1 generated no %s windows", k)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Generate(genConfig(0.5))
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatal("schedule did not survive a JSON round trip")
	}
}

func TestReadJSONRejectsBadSchedules(t *testing.T) {
	cases := map[string]string{
		"unknown kind":   `{"windows":[{"kind":"meteor","station":"X","start":"2023-03-25T00:00:00Z","end":"2023-03-25T01:00:00Z"}]}`,
		"empty span":     `{"windows":[{"kind":"station_outage","station":"X","start":"2023-03-25T01:00:00Z","end":"2023-03-25T01:00:00Z"}]}`,
		"no station":     `{"windows":[{"kind":"link_fade","start":"2023-03-25T00:00:00Z","end":"2023-03-25T01:00:00Z","severity":3}]}`,
		"negative fade":  `{"windows":[{"kind":"link_fade","station":"X","start":"2023-03-25T00:00:00Z","end":"2023-03-25T01:00:00Z","severity":-3}]}`,
		"throttle < 1":   `{"windows":[{"kind":"compute_throttle","sat":0,"start":"2023-03-25T00:00:00Z","end":"2023-03-25T01:00:00Z","severity":0.5}]}`,
		"unknown field":  `{"windows":[],"extra":1}`,
		"malformed json": `{`,
	}
	for name, js := range cases {
		if _, err := ReadJSON(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestInjectorQueries(t *testing.T) {
	s := &Schedule{Windows: []Window{
		{Kind: StationOutage, Station: "Svalbard", Start: epoch.Add(1 * time.Hour), End: epoch.Add(2 * time.Hour)},
		{Kind: LinkFade, Station: "Svalbard", Start: epoch.Add(3 * time.Hour), End: epoch.Add(4 * time.Hour), Severity: 3},
		{Kind: SensorDropout, Sat: 1, Start: epoch.Add(5 * time.Hour), End: epoch.Add(6 * time.Hour)},
		{Kind: ComputeThrottle, Sat: 1, Start: epoch.Add(5 * time.Hour), End: epoch.Add(7 * time.Hour), Severity: 2.5},
		{Kind: SatelliteReset, Sat: 2, Start: epoch.Add(8 * time.Hour), End: epoch.Add(9 * time.Hour)},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(s)
	if !inj.Active() {
		t.Fatal("injector with windows not active")
	}

	got := inj.LinkDerate("Svalbard", epoch.Add(210*time.Minute))
	want := math.Pow(10, -0.3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("3 dB fade derate = %g, want %g", got, want)
	}
	if d := inj.LinkDerate("Svalbard", epoch); d != 1 {
		t.Errorf("derate outside fade = %g, want 1", d)
	}
	if !inj.HasFades() {
		t.Error("HasFades false with a fade loaded")
	}

	if !inj.SensorDown(1, epoch.Add(330*time.Minute)) {
		t.Error("sat 1 sensor not down inside dropout")
	}
	if !inj.SensorDown(2, epoch.Add(510*time.Minute)) {
		t.Error("reset should also blind the sensor")
	}
	if inj.SensorDown(1, epoch.Add(6*time.Hour)) {
		t.Error("dropout end should be exclusive")
	}
	if inj.SensorDown(0, epoch.Add(330*time.Minute)) {
		t.Error("unfaulted sat reported blind")
	}

	cuts := inj.StationCuts("Svalbard", 2)
	if len(cuts) != 2 {
		t.Fatalf("StationCuts = %d windows, want outage + reset", len(cuts))
	}
	if cuts := inj.StationCuts("Sioux Falls", 0); cuts != nil {
		t.Errorf("unfaulted station/sat pair has cuts %v", cuts)
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var inj *Injector
	if inj.Active() {
		t.Error("nil injector active")
	}
	if inj.SensorDown(0, epoch) {
		t.Error("nil injector reported a fault")
	}
	if inj.LinkDerate("X", epoch) != 1 {
		t.Error("nil injector derated")
	}
	if inj.StationCuts("X", 0) != nil {
		t.Error("nil injector returned cuts")
	}
	if inj.HasFades() {
		t.Error("nil injector has fades")
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if InjectorFrom(ctx) != nil {
		t.Fatal("fresh context carries an injector")
	}
	if got := WithInjector(ctx, nil); got != ctx {
		t.Fatal("attaching a nil injector should be a no-op")
	}
	inj := NewInjector(Generate(genConfig(0.5)))
	if got := InjectorFrom(WithInjector(ctx, inj)); got != inj {
		t.Fatal("injector did not round-trip through the context")
	}
}

func TestSummaryListsKinds(t *testing.T) {
	s := Generate(genConfig(1))
	sum := s.Summary()
	for _, k := range []Kind{StationOutage, LinkFade, SensorDropout} {
		if !strings.Contains(sum, string(k)) {
			t.Errorf("summary missing %s:\n%s", k, sum)
		}
	}
	var empty *Schedule
	if got := empty.Summary(); !strings.Contains(got, "no fault windows") {
		t.Errorf("nil schedule summary = %q", got)
	}
}
