package slo

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kodan/internal/telemetry"
	"kodan/internal/telemetry/recorder"
	"kodan/internal/xrand"
)

func errObjective() Objective {
	return Objective{
		Name:         "transform-errors",
		BadCounter:   "server.transforms.failed",
		TotalCounter: "server.transforms.started",
		Target:       0.99,
	}
}

func TestObjectiveValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Objective
		want string
	}{
		{"valid error rate", errObjective(), ""},
		{"valid latency", Objective{Name: "lat", Histogram: "h", ThresholdSeconds: 1, Target: 0.9}, ""},
		{"no name", Objective{Target: 0.9, Histogram: "h", ThresholdSeconds: 1}, "without a name"},
		{"target zero", Objective{Name: "x", Histogram: "h", ThresholdSeconds: 1, Target: 0}, "outside (0, 1)"},
		{"target one", Objective{Name: "x", Histogram: "h", ThresholdSeconds: 1, Target: 1}, "outside (0, 1)"},
		{"both forms", Objective{Name: "x", Histogram: "h", ThresholdSeconds: 1, BadCounter: "b", TotalCounter: "t", Target: 0.9}, "both"},
		{"neither form", Objective{Name: "x", Target: 0.9}, "neither"},
		{"latency no threshold", Objective{Name: "x", Histogram: "h", Target: 0.9}, "positive threshold"},
		{"error rate no total", Objective{Name: "x", BadCounter: "b", Target: 0.9}, "both bad and total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want ok", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if _, err := NewEngine(nil, nil, []Objective{errObjective(), errObjective()}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate objective names accepted: %v", err)
	}
}

// TestChaosSweepOkPageOk is the acceptance test for the SLO state
// machine: a seeded fault-intensity sweep (clean → moderate → outage →
// clean) must drive the transform-errors objective ok → warn →
// page → ok, with state visible in the scope's metrics the whole way.
func TestChaosSweepOkPageOk(t *testing.T) {
	reg := telemetry.NewRegistry()
	started := reg.Counter("server.transforms.started")
	failed := reg.Counter("server.transforms.failed")
	rec := recorder.New(reg, 0)
	rec.Record() // prime the differential baseline

	eng, err := NewEngine(rec, reg.Scope("server.slo"), []Objective{errObjective()})
	if err != nil {
		t.Fatal(err)
	}

	// The sweep: per-phase fault intensity scaling a seeded error rate.
	// Moderate intensity burns ~4x budget (warn band: [2, 8)); full
	// intensity burns ~80x (page); clean phases burn nothing. Phases are
	// sized against the 6-sample fast and 36-sample slow windows.
	phases := []struct {
		intensity float64
		ticks     int
	}{
		{0.0, 12},
		{0.05, 24}, // ~4% errors: warn once the slow window catches up
		{1.0, 12},  // ~80% errors: page
		{0.0, 12},  // recovery: fast window clears first
	}
	const requestsPerTick = 200

	var states []string
	push := func(s string) {
		if len(states) == 0 || states[len(states)-1] != s {
			states = append(states, s)
		}
	}
	for pi, ph := range phases {
		rng := xrand.New(42 + uint64(pi))
		p := 0.8 * ph.intensity
		for tick := 0; tick < ph.ticks; tick++ {
			for i := 0; i < requestsPerTick; i++ {
				started.Inc()
				if p > 0 && rng.Bool(p) {
					failed.Inc()
				}
			}
			rec.Record()
			rep := eng.Evaluate()
			if len(rep.Objectives) != 1 {
				t.Fatalf("report has %d objectives, want 1", len(rep.Objectives))
			}
			push(rep.Objectives[0].State)
			if rep.Worst != rep.Objectives[0].State {
				t.Fatalf("worst %q != sole objective state %q", rep.Worst, rep.Objectives[0].State)
			}
			// The state gauge must track the reported state.
			wantGauge := map[string]int64{"ok": 0, "warn": 1, "page": 2}[rep.Objectives[0].State]
			if got := reg.Gauge("server.slo.transform-errors.state").Load(); got != wantGauge {
				t.Fatalf("state gauge = %d, want %d (%s)", got, wantGauge, rep.Objectives[0].State)
			}
		}
	}

	got := strings.Join(states, "→")
	if got != "ok→warn→page→ok" {
		t.Fatalf("state trajectory = %s, want ok→warn→page→ok", got)
	}
	// Transitions were counted: at least one entry into each state.
	for _, s := range []string{"ok", "warn", "page"} {
		if n := reg.Counter("server.slo.transform-errors.transitions." + s).Load(); n == 0 {
			t.Errorf("no recorded transition into %s", s)
		}
	}
}

// TestLatencyObjectiveFromBuckets: the latency form must read good/bad
// straight from histogram bucket deltas.
func TestLatencyObjectiveFromBuckets(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("server.transform_seconds")
	rec := recorder.New(reg, 0)
	rec.Record()

	eng, err := NewEngine(rec, nil, []Objective{{
		Name:             "transform-latency",
		Histogram:        "server.transform_seconds",
		ThresholdSeconds: 1.0,
		Target:           0.90,
	}})
	if err != nil {
		t.Fatal(err)
	}

	// 50% of observations over threshold: burn = 0.5/0.1 = 5 → warn.
	for i := 0; i < 10; i++ {
		h.Observe(0.01)
		h.Observe(30.0)
	}
	rec.Record()
	rec.Record() // second sample so both windows have evidence
	rep := eng.Evaluate()
	st := rep.Objectives[0]
	if st.State != "warn" {
		t.Fatalf("state = %s (fast burn %v, slow burn %v), want warn", st.State, st.Fast.Burn, st.Slow.Burn)
	}
	if st.Fast.Total != 20 || st.Fast.Bad != 10 {
		t.Fatalf("fast window bad/total = %d/%d, want 10/20", st.Fast.Bad, st.Fast.Total)
	}
}

// TestZeroTrafficIsOK: an idle service must not page (no evidence ≠ bad).
func TestZeroTrafficIsOK(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := recorder.New(reg, 0)
	rec.Record()
	rec.Record()
	eng, err := NewEngine(rec, nil, []Objective{errObjective()})
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Evaluate()
	if rep.Worst != "ok" || rep.Objectives[0].Fast.Burn != 0 {
		t.Fatalf("idle service reported %s (burn %v), want ok/0", rep.Worst, rep.Objectives[0].Fast.Burn)
	}
}

// TestHandlerServesJSON: /debug/slo must serve a well-formed Report.
func TestHandlerServesJSON(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := recorder.New(reg, 0)
	rec.Record()
	eng, err := NewEngine(rec, reg.Scope("server.slo"), DefaultServerObjectives(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	eng.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var rep Report
	if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
		t.Fatalf("body not JSON: %v\n%s", err, rr.Body.String())
	}
	if len(rep.Objectives) != 3 || rep.Worst != "ok" {
		t.Fatalf("report = %+v, want 3 idle-ok objectives", rep)
	}
}

// TestStartStopEvaluatesOnSamples: a started engine must evaluate on the
// recorder's sample feed without any explicit Evaluate calls.
func TestStartStopEvaluatesOnSamples(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := recorder.New(reg, 0)
	rec.Record()
	eng, err := NewEngine(rec, reg.Scope("server.slo"), []Objective{errObjective()})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	eng.Start() // extra Start is a no-op
	rec.Record()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("server.slo.evaluations").Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("engine never evaluated on the sample feed")
		}
		time.Sleep(time.Millisecond)
	}
	eng.Stop()
	eng.Stop() // extra Stop is a no-op
}

// TestConcurrentEvaluate: Evaluate must be safe from many goroutines
// (exercised meaningfully under -race).
func TestConcurrentEvaluate(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("server.transforms.started")
	rec := recorder.New(reg, 0)
	rec.Record()
	eng, err := NewEngine(rec, reg.Scope("server.slo"), []Objective{errObjective()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c.Inc()
				rec.Record()
				eng.Evaluate()
			}
		}()
	}
	wg.Wait()
}

// TestNilEngine: every method on a nil engine is a safe no-op.
func TestNilEngine(t *testing.T) {
	var e *Engine
	e.Start()
	e.Stop()
	if rep := e.Evaluate(); rep.Worst != "ok" {
		t.Fatalf("nil engine worst = %q, want ok", rep.Worst)
	}
	if e.Objectives() != nil {
		t.Fatal("nil engine objectives should be nil")
	}
}
