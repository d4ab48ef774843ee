package analyze

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"kodan/internal/telemetry"
)

// RenderSummary formats the per-phase digest of one trace: span/event
// counts and parse health on top, then the phase table (sorted by self
// time), then the topK slowest individual spans (non-positive topK means
// 10). Output is byte-deterministic for a given trace.
func (t *Trace) RenderSummary(topK int) string {
	if topK <= 0 {
		topK = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events, %d spans, %d roots\n", t.Events, len(t.Spans), len(t.Roots))
	if len(t.Unfinished) > 0 {
		fmt.Fprintf(&b, "unfinished spans (%d): %s\n", len(t.Unfinished), strings.Join(t.Unfinished, ", "))
	}
	if t.OrphanEnds > 0 {
		fmt.Fprintf(&b, "orphan end events (begin dropped at buffer cap): %d\n", t.OrphanEnds)
	}
	phases := t.Phases()
	if len(phases) > 0 {
		fmt.Fprintf(&b, "%-28s %8s %14s %14s %14s %14s\n", "phase", "spans", "self", "total", "mean", "max")
		for _, p := range phases {
			mean := time.Duration(0)
			if p.Count > 0 {
				mean = p.Total / time.Duration(p.Count)
			}
			fmt.Fprintf(&b, "%-28s %8d %14v %14v %14v %14v\n",
				p.Name, p.Count,
				p.Self.Round(time.Microsecond), p.Total.Round(time.Microsecond),
				mean.Round(time.Microsecond), p.Max.Round(time.Microsecond))
		}
	}
	slow := append([]*Span(nil), t.Spans...)
	sort.Slice(slow, func(i, j int) bool {
		if slow[i].Dur() != slow[j].Dur() {
			return slow[i].Dur() > slow[j].Dur()
		}
		return slow[i].ID < slow[j].ID
	})
	if len(slow) > topK {
		slow = slow[:topK]
	}
	if len(slow) > 0 {
		fmt.Fprintf(&b, "top %d slowest spans:\n", len(slow))
		for _, sp := range slow {
			fmt.Fprintf(&b, "  %-28s %14v%s\n", sp.Name, sp.Dur().Round(time.Microsecond), renderAttrs(sp.Attrs))
		}
	}
	return b.String()
}

// RenderTracer digests a live tracer the way the CLIs print it at exit:
// RenderSummary(topK) over its recorded events, then the number of events
// the tracer's buffer cap discarded, when there were any.
func RenderTracer(tr *telemetry.Tracer, topK int) string {
	t, err := Build(tr.Events())
	if err != nil {
		return fmt.Sprintf("trace: %v\n", err)
	}
	out := t.RenderSummary(topK)
	if n := tr.Dropped(); n > 0 {
		out += fmt.Sprintf("events dropped at buffer cap: %d\n", n)
	}
	return out
}

// RenderShape formats only the trace's shape: one "name count" line per
// phase, sorted by name. The shape is invariant across worker counts and
// machine speed — two runs of the same workload at -parallel 1 and
// -parallel 4 produce byte-identical shapes even though every timestamp
// differs — which makes it the right artifact for CI to compare.
func (t *Trace) RenderShape() string {
	phases := t.Phases()
	sort.Slice(phases, func(i, j int) bool { return phases[i].Name < phases[j].Name })
	var b strings.Builder
	for _, p := range phases {
		fmt.Fprintf(&b, "%s %d\n", p.Name, p.Count)
	}
	if len(t.Unfinished) > 0 {
		fmt.Fprintf(&b, "unfinished %d\n", len(t.Unfinished))
	}
	return b.String()
}

// RenderCritical formats the critical path as a chronological table:
// offset from the path's start, segment duration, and the span owning
// the segment (with attributes).
func (t *Trace) RenderCritical() string {
	steps := t.CriticalPath()
	if len(steps) == 0 {
		return "critical path: empty trace\n"
	}
	start := steps[0].FromNs
	var total time.Duration
	for _, s := range steps {
		total += s.Dur()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %d segments, %v\n", len(steps), total.Round(time.Microsecond))
	fmt.Fprintf(&b, "%14s %14s  %s\n", "offset", "dur", "span")
	for _, s := range steps {
		off := time.Duration(s.FromNs - start)
		fmt.Fprintf(&b, "%14v %14v  %s%s\n",
			off.Round(time.Microsecond), s.Dur().Round(time.Microsecond),
			s.Span.Name, renderAttrs(s.Span.Attrs))
	}
	return b.String()
}

// Render formats the diff as the per-phase delta table plus the variant
// attributes that changed. Deterministic for a given pair of traces.
func (d Diff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace diff: self A %v, self B %v, net %+v\n",
		d.SelfA.Round(time.Microsecond), d.SelfB.Round(time.Microsecond), d.Net().Round(time.Microsecond))
	fmt.Fprintf(&b, "spans: A %d, B %d\n", d.SpansA, d.SpansB)
	if len(d.Rows) > 0 {
		fmt.Fprintf(&b, "%-28s %6s %6s %14s %14s %14s %8s\n",
			"phase", "nA", "nB", "selfA", "selfB", "delta", "attr%")
		for _, r := range d.Rows {
			fmt.Fprintf(&b, "%-28s %6d %6d %14v %14v %+14v %7.1f%%\n",
				r.Name, r.CountA, r.CountB,
				r.SelfA.Round(time.Microsecond), r.SelfB.Round(time.Microsecond),
				r.Delta.Round(time.Microsecond), r.AttrPct)
		}
	}
	if len(d.AttrChanges) > 0 {
		b.WriteString("changed attributes:\n")
		for _, c := range d.AttrChanges {
			fmt.Fprintf(&b, "  %-28s %s: %s -> %s\n", c.Phase, c.Key, c.A, c.B)
		}
	}
	return b.String()
}

// renderAttrs formats a span's attributes as sorted " k=v" suffixes.
func renderAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, attrs[k])
	}
	return b.String()
}
