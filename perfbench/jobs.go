package main

import (
	"context"
	"runtime"
	"slices"
	"time"

	"kodan/internal/telemetry"
)

// phase is the outcome of a measured phase of repeated jobs.
type phase struct {
	// walls and tracedWalls are job wall times in seconds.
	walls, tracedWalls []float64
	// allocMB and gcCycles are Go heap allocation and GC cycles per
	// untraced job.
	allocMB, gcCycles float64
	// on is the sink the traced jobs recorded into.
	on *tracing
}

// jobs runs job back to back until r.seconds have passed, and at least
// once. A traced run alternates untraced and traced jobs (and runs at least
// one of each): the untraced ones give the tracing overhead and the memory
// deltas, the traced ones the per-layer breakdown. Each job runs under a
// root span, so the layers' self times can be checked against its wall.
func jobs(ctx context.Context, r *run, job func(ctx context.Context, t *tracing) error) (phase, error) {
	p := phase{on: newTracing(true)}
	off := newTracing(false)
	if !r.traced {
		p.on = off
	}
	var alloc, gc float64
	start := time.Now()
	for i := 0; ; i++ {
		done := time.Since(start) >= r.seconds
		if done && len(p.walls) > 0 && (!r.traced || len(p.tracedWalls) > 0) {
			break
		}
		traced := r.traced && i%2 == 1
		t := off
		if traced {
			t = p.on
		}
		// Each job starts from a collected heap, so its GC work does not
		// depend on what the previous job left behind.
		runtime.GC()
		mem := startMem()
		jctx, root := telemetry.StartSpan(t.attach(ctx), jobSpan)
		jobStart := time.Now()
		err := job(jctx, t)
		wall := time.Since(jobStart).Seconds()
		root.End()
		if err != nil {
			return p, err
		}
		if traced {
			p.tracedWalls = append(p.tracedWalls, wall)
			continue
		}
		a, g := mem.stop()
		alloc += a
		gc += g
		p.walls = append(p.walls, wall)
	}
	p.allocMB = alloc / float64(len(p.walls))
	p.gcCycles = gc / float64(len(p.walls))
	return p, nil
}

// report sets the end-to-end job metrics (untraced run) or the per-layer
// metrics common to every job workload (traced run), and returns the
// attribution of a traced run.
func (p phase) report(r *run) (attribution, error) {
	r.rec.Samples["jobs"] = len(p.walls)
	if !r.traced {
		ms := make([]float64, len(p.walls))
		for i, w := range p.walls {
			ms[i] = w * 1000
		}
		r.rec.JobWallsMs = ms
		r.set("latency_ms", "ms", median(ms))
		// A run holds too few jobs for a high percentile to be stable; the
		// upper quartile is the highest one that is.
		r.set("tail_latency_ms", "ms", quantile(ms, 0.75))
		return attribution{}, nil
	}
	r.rec.Samples["traced_jobs"] = len(p.tracedWalls)
	a, err := p.on.attribute()
	if err != nil {
		return a, err
	}
	jobs := float64(len(p.tracedWalls))
	setLayerTimes(r, a, jobs)
	r.set("go.alloc_mb", "MB", p.allocMB)
	r.set("go.gc_cycles", "count", p.gcCycles)
	r.set("telemetry.overhead_frac", "frac", median(p.tracedWalls)/median(p.walls)-1)
	r.set("nn.models_trained", "count", p.on.counter("nn.fits")/jobs)
	r.set("policy.optimize_calls", "count", float64(countSpans(a, "kodan.SelectionLogic", "kodan.PlanHybrid"))/jobs)
	return a, p.on.writeTrace(r)
}

// timedLayers are the layers whose per-job self time a job workload
// reports as <layer>_s.
var timedLayers = []string{
	"core.workspace", "dataset.generate", "ctxengine.build", "nn.train", "nn.infer",
	"core.transform_app", "policy.optimize", "sim.run", "sim.captures", "sim.contacts",
	"sim.downlink", "planner.plan", "sim.drain", "mission.run", "dataset.capture",
}

// countSpans counts the trace's spans with any of the given names.
func countSpans(a attribution, names ...string) int {
	n := 0
	for _, sp := range a.Spans {
		if slices.Contains(names, sp.Name) {
			n++
		}
	}
	return n
}

// spanDurs returns the durations in seconds of the spans named name whose
// attribute key (if non-empty) equals val.
func spanDurs(a attribution, name, key, val string) []float64 {
	var out []float64
	for _, sp := range a.Spans {
		if sp.Name == name && (key == "" || sp.Attrs[key] == val) {
			out = append(out, sp.Dur().Seconds())
		}
	}
	return out
}
