package telemetry

import "context"

// Probe bundles the two telemetry sinks that ride a context through the
// hot paths: the metric registry and the span tracer. The zero Probe is
// the no-op default — both fields nil — so instrumented code can call
// ProbeFrom unconditionally and use the result without branching.
type Probe struct {
	Metrics *Registry
	Trace   *Tracer
}

// Enabled reports whether any sink is attached.
func (p Probe) Enabled() bool { return p.Metrics != nil || p.Trace != nil }

type ctxKey int

const (
	probeKey ctxKey = iota
	spanKey
)

// WithProbe attaches a probe to the context. Instrumented layers below —
// the simulator, the transformation engine, parallel.Map, nn training
// — pick it up with ProbeFrom and record into its sinks.
func WithProbe(ctx context.Context, p Probe) context.Context {
	return context.WithValue(ctx, probeKey, p)
}

// ProbeFrom returns the context's probe, or the zero (no-op) Probe.
func ProbeFrom(ctx context.Context) Probe {
	if p, ok := ctx.Value(probeKey).(Probe); ok {
		return p
	}
	return Probe{}
}

// WithSpan marks sp as the context's current span, so spans started below
// link to it as their parent.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// SpanFrom returns the context's current span (nil when none).
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// StartSpan begins a span named name on the context's tracer, parented to
// the context's current span, and returns a context carrying the new span
// plus the span itself. With no tracer attached it returns (ctx, nil) —
// and the nil span's End is a no-op — so callers write exactly one
// pattern:
//
//	ctx, sp := telemetry.StartSpan(ctx, "sim.run")
//	defer sp.End()
//
// When the context carries a request ID (serving middleware mints one per
// request), the span is automatically annotated with it, so every span
// under a request — pool wait, transform, simulation — is correlatable
// with the request's slog lines.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tr := ProbeFrom(ctx).Trace
	if tr == nil {
		return ctx, nil
	}
	var sp *Span
	if parent := SpanFrom(ctx); parent != nil {
		sp = parent.Child(name)
	} else {
		sp = tr.Begin(name)
	}
	if id := RequestIDFrom(ctx); id != "" {
		sp.Set(RequestIDAttr, id)
	}
	return WithSpan(ctx, sp), sp
}
