// Package slo evaluates declarative service-level objectives over the
// shared telemetry registry, using the flight recorder's fine ring as its
// time base.
//
// An Objective declares either a latency target ("this fraction of
// observations must land at or under this threshold", read from histogram
// bucket deltas) or an error-rate target ("this fraction of operations
// must not be the bad counter", read from counter deltas). The engine
// evaluates each objective over two trailing windows of recorder samples
// — a fast window that reacts within seconds and a slow window that
// filters blips — and converts each window's bad fraction into a burn
// rate: the multiple of the error budget the service is currently
// consuming (burn 1 = exactly spending the budget, burn 8 = spending it
// 8x too fast). The output is three-state:
//
//	ok    — neither window burns at warning rate
//	warn  — both windows burn at or above warnBurn (2)
//	page  — both windows burn at or above pageBurn (8)
//
// Requiring both windows (the multi-window, multi-burn-rate pattern)
// keeps pages fast on real incidents — the fast window trips immediately
// — while the slow window's memory prevents flapping: a one-sample spike
// cannot page, and after an incident the page clears as soon as the fast
// window is clean, without waiting for the slow window to forget.
//
// Like the rest of the telemetry layer, the engine only observes. State
// lands in gauges/counters under the scope the caller provides (the
// server uses "server.slo"), as JSON via Handler, and in the /debug/dash
// SLO panel — never back into any computation.
package slo

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"kodan/internal/telemetry"
	"kodan/internal/telemetry/recorder"
)

// State is an objective's three-state health.
type State int

const (
	OK State = iota
	Warn
	Page
)

func (s State) String() string {
	switch s {
	case OK:
		return "ok"
	case Warn:
		return "warn"
	case Page:
		return "page"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Objective declares one SLO. Exactly one of the two forms must be set:
//
//   - latency: Histogram + ThresholdSeconds — an observation is good when
//     it lands in a bucket whose upper bound is at or under the threshold;
//   - error rate: BadCounter + TotalCounter — a bad increment counts
//     against the budget of total increments.
//
// Target is the good fraction promised, in (0, 1): 0.99 means 1% budget.
type Objective struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	Histogram        string  `json:"histogram,omitempty"`
	ThresholdSeconds float64 `json:"thresholdSeconds,omitempty"`

	BadCounter   string `json:"badCounter,omitempty"`
	TotalCounter string `json:"totalCounter,omitempty"`

	Target float64 `json:"target"`
}

// Validate rejects contradictory or incomplete declarations.
func (o Objective) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("slo: objective without a name")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("slo %q: target %v outside (0, 1)", o.Name, o.Target)
	}
	latency := o.Histogram != "" || o.ThresholdSeconds != 0
	errRate := o.BadCounter != "" || o.TotalCounter != ""
	switch {
	case latency && errRate:
		return fmt.Errorf("slo %q: declares both a latency histogram and error counters", o.Name)
	case !latency && !errRate:
		return fmt.Errorf("slo %q: declares neither a latency histogram nor error counters", o.Name)
	case latency && (o.Histogram == "" || o.ThresholdSeconds <= 0):
		return fmt.Errorf("slo %q: latency form needs both histogram and a positive threshold", o.Name)
	case errRate && (o.BadCounter == "" || o.TotalCounter == ""):
		return fmt.Errorf("slo %q: error-rate form needs both bad and total counters", o.Name)
	}
	return nil
}

// Evaluation windows and burn thresholds. Windows are counted in recorder
// fine samples, so wall-clock width is the recorder interval times the
// sample count. Burn 1 means spending exactly the error budget.
const (
	fastSamples = 6
	slowSamples = 36
	warnBurn    = 2.0
	pageBurn    = 8.0
)

// WindowStatus is one window's evidence for one objective.
type WindowStatus struct {
	Bad   int64 `json:"bad"`
	Total int64 `json:"total"`
	// Burn is the budget burn rate: badFraction / (1 - target). Zero
	// when the window saw no traffic (no evidence is not bad evidence).
	Burn float64 `json:"burn"`
	// DurMs is the wall time the window's samples actually cover.
	DurMs int64 `json:"durMs"`
}

// Status is one objective's evaluated state.
type Status struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	State       string       `json:"state"`
	Target      float64      `json:"target"`
	Fast        WindowStatus `json:"fast"`
	Slow        WindowStatus `json:"slow"`
}

// Report is the full /debug/slo document.
type Report struct {
	WallMs int64 `json:"wallMs"`
	// Worst is the worst objective state — the page-or-not answer.
	Worst      string   `json:"worst"`
	Objectives []Status `json:"objectives"`
	WarnBurn   float64  `json:"warnBurn"`
	PageBurn   float64  `json:"pageBurn"`
}

// Engine evaluates objectives over a recorder's fine ring. Create with
// NewEngine; Start subscribes it to the recorder so every new sample
// triggers an evaluation, or call Evaluate directly. Nil-safe: every
// method on a nil *Engine is a no-op.
type Engine struct {
	rec        *recorder.Recorder
	scope      *telemetry.Scope
	objectives []Objective
	now        func() time.Time

	mu   sync.Mutex
	last map[string]State

	lifecycle sync.Mutex
	cancelSub func()
	done      chan struct{}
}

// NewEngine validates the objectives and returns an engine reading
// windows from rec and writing state metrics through scope (a nil scope
// disables metrics; a nil recorder yields an engine that reports every
// objective ok on empty evidence).
func NewEngine(rec *recorder.Recorder, scope *telemetry.Scope, objectives []Objective) (*Engine, error) {
	seen := make(map[string]bool, len(objectives))
	for _, o := range objectives {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
	}
	return &Engine{
		rec:        rec,
		scope:      scope,
		objectives: objectives,
		now:        time.Now,
		last:       make(map[string]State, len(objectives)),
	}, nil
}

// Objectives returns the engine's objective declarations.
func (e *Engine) Objectives() []Objective {
	if e == nil {
		return nil
	}
	return append([]Objective(nil), e.objectives...)
}

// Evaluate reads the trailing windows from the recorder and scores every
// objective, updating the state metrics. Safe from any goroutine.
func (e *Engine) Evaluate() Report {
	if e == nil {
		return Report{Worst: OK.String()}
	}
	samples := e.rec.Fine(slowSamples)
	fastFrom := len(samples) - fastSamples
	if fastFrom < 0 {
		fastFrom = 0
	}
	fast := samples[fastFrom:]

	rep := Report{
		WallMs:   e.now().UnixMilli(),
		WarnBurn: warnBurn,
		PageBurn: pageBurn,
	}
	worst := OK
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.objectives {
		st := Status{
			Name:        o.Name,
			Description: o.Description,
			Target:      o.Target,
			Fast:        window(o, fast),
			Slow:        window(o, samples),
		}
		state := OK
		switch {
		case st.Fast.Burn >= pageBurn && st.Slow.Burn >= pageBurn:
			state = Page
		case st.Fast.Burn >= warnBurn && st.Slow.Burn >= warnBurn:
			state = Warn
		}
		st.State = state.String()
		if state > worst {
			worst = state
		}
		e.publish(o.Name, state, st)
		rep.Objectives = append(rep.Objectives, st)
	}
	e.scope.Counter("evaluations").Inc()
	rep.Worst = worst.String()
	return rep
}

// publish lands one objective's state in the metrics scope and counts
// transitions. Caller holds e.mu.
func (e *Engine) publish(name string, state State, st Status) {
	e.scope.Gauge(name + ".state").Set(int64(state))
	e.scope.Gauge(name + ".fast_burn_milli").Set(int64(st.Fast.Burn * 1000))
	e.scope.Gauge(name + ".slow_burn_milli").Set(int64(st.Slow.Burn * 1000))
	if prev, ok := e.last[name]; !ok || prev != state {
		e.scope.Counter(name + ".transitions." + state.String()).Inc()
	}
	e.last[name] = state
}

// window tallies one objective's good/bad evidence over a sample window.
func window(o Objective, samples []recorder.Sample) WindowStatus {
	var w WindowStatus
	for _, s := range samples {
		w.DurMs += s.DurMs
		if o.Histogram != "" {
			var good, total int64
			for i, n := range s.HistogramBucketDelta(o.Histogram) {
				total += n
				if telemetry.BucketUpperBound(i) <= o.ThresholdSeconds {
					good += n
				}
			}
			w.Total += total
			w.Bad += total - good
		} else {
			bad := s.Counters[o.BadCounter].Delta
			total := s.Counters[o.TotalCounter].Delta
			if bad > total { // bad and total tick at different instants
				bad = total
			}
			w.Bad += bad
			w.Total += total
		}
	}
	if w.Total > 0 {
		w.Burn = (float64(w.Bad) / float64(w.Total)) / (1 - o.Target)
	}
	return w
}

// Start subscribes the engine to the recorder: every recorded sample
// triggers one evaluation, so SLO state advances at the recorder's
// interval. Extra Starts are no-ops; Stop unsubscribes and waits.
func (e *Engine) Start() {
	if e == nil {
		return
	}
	e.lifecycle.Lock()
	defer e.lifecycle.Unlock()
	if e.cancelSub != nil {
		return
	}
	ch, cancel := e.rec.Subscribe(4)
	e.cancelSub = cancel
	done := make(chan struct{})
	e.done = done
	go func() {
		defer close(done)
		for range ch {
			e.Evaluate()
		}
	}()
}

// Stop halts the evaluation loop and waits for it to exit.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.lifecycle.Lock()
	defer e.lifecycle.Unlock()
	if e.cancelSub == nil {
		return
	}
	e.cancelSub()
	<-e.done
	e.cancelSub, e.done = nil, nil
}

// Handler serves the current Report as JSON — the /debug/slo endpoint.
// Each request evaluates fresh, so the answer is never staler than the
// recorder's ring.
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(e.Evaluate())
	})
}

// DefaultServerObjectives is the serving path's SLO set: transform
// latency under threshold, transform error rate, and HTTP 5xx rate —
// all over counters/histograms the server already maintains in the
// shared registry.
func DefaultServerObjectives(transformThreshold time.Duration) []Objective {
	return []Objective{
		{
			Name:             "transform-latency",
			Description:      fmt.Sprintf("90%% of transforms complete within %v", transformThreshold),
			Histogram:        "server.transform_seconds",
			ThresholdSeconds: transformThreshold.Seconds(),
			Target:           0.90,
		},
		{
			Name:         "transform-errors",
			Description:  "99% of started transforms do not fail",
			BadCounter:   "server.transforms.failed",
			TotalCounter: "server.transforms.started",
			Target:       0.99,
		},
		{
			Name:         "http-errors",
			Description:  "99.9% of requests are not 5xx",
			BadCounter:   "server.http.errors",
			TotalCounter: "server.http.requests_total",
			Target:       0.999,
		},
	}
}
