package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kodan/internal/telemetry"
	"kodan/internal/telemetry/analyze"
)

// jobSpan names the benchmark's root span around one job. Its self time is
// the part of the job no named layer accounts for.
const jobSpan = "bench.job"

// layerOf maps span names — the program's existing spans and the
// benchmark's own spans around public calls (named after the call) — to
// the layer that owns their self time. Spans not listed here count as
// unattributed.
var layerOf = map[string]string{
	"kodan.NewSystemCtx":        "core.workspace",
	"transform.workspace":       "core.workspace",
	"transform.dataset":         "dataset.generate",
	"transform.contexts":        "ctxengine.build",
	"kodan.TransformVariantCtx": "core.transform_app",
	"transform.app":             "core.transform_app",
	"transform.tiling":          "core.transform_app",
	"nn.train":                  "nn.train",
	"nn.infer":                  "nn.infer",
	"kodan.SelectionLogic":      "policy.optimize",
	"kodan.PlanHybrid":          "planner.plan",
	"sim.RunCtx":                "sim.run",
	"sim.run":                   "sim.run",
	"fault.inject":              "sim.run",
	"sim.captures":              "sim.captures",
	"sim.contacts":              "sim.contacts",
	"sim.downlink":              "sim.downlink",
	"sim.DrainDeferredCtx":      "sim.drain",
	"mission.Run":               "mission.run",
	"dataset.Generate":          "dataset.capture",
	"deploy.ProcessFrame":       "deploy.frame",
	"deploy.Ledger":             "deploy.ledger",
}

// tracing wraps the benchmark's calls into the program. With a nil tracer
// every span is a no-op, so traced and untraced jobs run the same code.
type tracing struct {
	tr  *telemetry.Tracer
	reg *telemetry.Registry
	// since, when set, limits attribution to spans that start at or
	// after it.
	since time.Time
	// delay injects a known sleep inside the named span; the attribution
	// self-test uses it to prove a delay lands on the right layer.
	delay map[string]time.Duration
}

// newTracing returns a tracing sink; traced=false gives the no-op.
func newTracing(traced bool) *tracing {
	if !traced {
		return &tracing{}
	}
	return &tracing{tr: telemetry.NewTracer(0), reg: telemetry.NewRegistry()}
}

// attach puts the probe on ctx so the program's own spans and counters
// record into this sink (no-op when untraced).
func (t *tracing) attach(ctx context.Context) context.Context {
	if t.tr == nil {
		return ctx
	}
	return telemetry.WithProbe(ctx, telemetry.Probe{Metrics: t.reg, Trace: t.tr})
}

// call runs fn inside a span named after the public call it makes,
// annotated with the optional key/value attribute pairs.
func (t *tracing) call(ctx context.Context, name string, fn func(context.Context) error, attrs ...string) error {
	ctx, sp := telemetry.StartSpan(ctx, name)
	defer sp.End()
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.Set(attrs[i], attrs[i+1])
	}
	if d := t.delay[name]; d > 0 {
		time.Sleep(d)
	}
	return fn(ctx)
}

// counter reads one counter of the sink's registry.
func (t *tracing) counter(name string) float64 {
	return float64(t.reg.Snapshot().Counters[name])
}

// attribution is the per-layer breakdown of a traced phase.
type attribution struct {
	// Self is each layer's self time in seconds, summed over the phase.
	Self map[string]float64
	// Unattributed is self time of spans that belong to no layer,
	// including the job roots' own self time.
	Unattributed float64
	// Wall is the summed duration of the job root spans.
	Wall float64
	// Spans holds the reassembled trace for span-level reads.
	Spans []*analyze.Span
}

// coverage is the share of job wall time the named layers account for.
func (a attribution) coverage() float64 {
	if a.Wall <= 0 {
		return 0
	}
	return 1 - a.Unattributed/a.Wall
}

// attribute reassembles the sink's spans and sums self time per layer.
func (t *tracing) attribute() (attribution, error) {
	tr, err := analyze.Build(t.tr.Events())
	if err != nil {
		return attribution{}, fmt.Errorf("trace: %w", err)
	}
	a := attribution{Self: map[string]float64{}}
	for _, sp := range tr.Spans {
		if !t.since.IsZero() && sp.StartNs < t.since.UnixNano() {
			continue
		}
		a.Spans = append(a.Spans, sp)
		self := sp.Self().Seconds()
		if sp.Name == jobSpan {
			a.Wall += sp.Dur().Seconds()
			a.Unattributed += self
			continue
		}
		if layer, ok := layerOf[sp.Name]; ok {
			a.Self[layer] += self
		} else {
			a.Unattributed += self
		}
	}
	return a, nil
}

// writeTrace stores the sink's spans as JSONL (kodan-trace reads it).
func (t *tracing) writeTrace(r *run) error {
	path := filepath.Join(r.out, fmt.Sprintf("%s-seed%d.trace.jsonl", r.rec.Workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.rec.TraceFile = path
	return nil
}

// metricName is a reported metric and its unit.
type metricName struct{ name, unit string }

// endToEnd lists every end-to-end metric, in BENCHMARK.json order. An
// untraced run reports all of them.
var endToEnd = []metricName{
	{"latency_ms", "ms"},
	{"tail_latency_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. A traced run reports all of them; layers a workload does not
// exercise read 0.
var perLayer = []metricName{
	{"core.workspace_s", "s"},
	{"dataset.generate_s", "s"},
	{"dataset.tiles", "count"},
	{"ctxengine.build_s", "s"},
	{"nn.train_s", "s"},
	{"nn.models_trained", "count"},
	{"nn.infer_s", "s"},
	{"core.transform_app_s", "s"},
	{"policy.optimize_s", "s"},
	{"policy.optimize_calls", "count"},
	{"sim.run_s", "s"},
	{"sim.captures_s", "s"},
	{"sim.contacts_s", "s"},
	{"sim.downlink_s", "s"},
	{"sim.frames_captured", "count"},
	{"sim.contact_windows", "count"},
	{"sim.grants", "count"},
	{"events.journaled", "count"},
	{"planner.plan_s", "s"},
	{"sim.drain_s", "s"},
	{"sim.drain_delivered_bits", "bit"},
	{"mission.run_s", "s"},
	{"mission.frames", "count"},
	{"dataset.capture_s", "s"},
	{"deploy.frame_ms", "ms"},
	{"deploy.frame_int8_ms", "ms"},
	{"deploy.tiles_filtered", "count"},
	{"deploy.tiles_discarded", "count"},
	{"deploy.tiles_downlinked", "count"},
	{"server.hit_ratio", "frac"},
	{"server.hit_p50_ms", "ms"},
	{"server.miss_p50_ms", "ms"},
	{"server.pool_wait_ms", "ms"},
	{"server.transforms", "count"},
	{"shardcache.evictions", "count"},
	{"admission.rejected", "count"},
	{"serve.p99_ms", "ms"},
	{"serve.peak_p99_ms", "ms"},
	{"serve.slo_frac", "frac"},
	{"loadgen.late_ms", "ms"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"telemetry.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},
	{"failed_frac", "frac"},
}

// fillPerLayer reports every per-layer metric the workload did not set as
// 0: the layers it does not exercise.
func fillPerLayer(r *run) {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0)
		}
	}
}

// setLayerTimes reports the timed layers' self times of a traced phase, per
// job, and the share of the job wall time they cover.
func setLayerTimes(r *run, a attribution, jobs float64) {
	for _, l := range timedLayers {
		r.set(l+"_s", "s", a.Self[l]/jobs)
	}
	r.set("trace.coverage_frac", "frac", a.coverage())
}
