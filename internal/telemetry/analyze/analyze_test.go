package analyze

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"kodan/internal/telemetry"
)

// ev builds one event with millisecond-scale wall stamps (1 unit = 1 ms),
// keeping hand-built test traces readable.
func bev(id, parent int64, name string, ms int64) telemetry.Event {
	return telemetry.Event{Ev: "b", ID: id, Parent: parent, Name: name, WallNs: ms * int64(time.Millisecond)}
}

func eev(id int64, ms int64, attrs map[string]string) telemetry.Event {
	return telemetry.Event{Ev: "e", ID: id, WallNs: ms * int64(time.Millisecond), Attrs: attrs}
}

func jsonl(t *testing.T, events []telemetry.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func ms(d time.Duration) int64 { return int64(d / time.Millisecond) }

// TestRoundTrip drives a real Tracer through WriteJSONL and back through
// Parse: every finished span must come back with its name, parentage, and
// attributes intact.
func TestRoundTrip(t *testing.T) {
	tr := telemetry.NewTracer(0)
	root := tr.Begin("figure.fig8")
	child := root.Child("transform.app")
	child.Set("app", "3")
	child.Set("quantized", "true")
	grand := child.Child("nn.infer")
	grand.End()
	child.End()
	sib := root.Child("transform.app")
	sib.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Events != 8 || len(trace.Spans) != 4 {
		t.Fatalf("events=%d spans=%d, want 8/4", trace.Events, len(trace.Spans))
	}
	if len(trace.Roots) != 1 || trace.Roots[0].Name != "figure.fig8" {
		t.Fatalf("roots = %+v, want single figure.fig8", trace.Roots)
	}
	r := trace.Roots[0]
	if len(r.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(r.Children))
	}
	c := r.Children[0]
	if c.Name != "transform.app" || c.Attrs["app"] != "3" || c.Attrs["quantized"] != "true" {
		t.Fatalf("child = %q attrs %v", c.Name, c.Attrs)
	}
	if len(c.Children) != 1 || c.Children[0].Name != "nn.infer" {
		t.Fatalf("grandchild missing: %+v", c.Children)
	}
	if len(trace.Unfinished) != 0 || trace.OrphanEnds != 0 {
		t.Fatalf("unfinished=%v orphans=%d, want none", trace.Unfinished, trace.OrphanEnds)
	}
}

// TestUnfinishedSpans covers spans still open at WriteJSONL time: they
// must be reported by name, and their finished children must still root.
func TestUnfinishedSpans(t *testing.T) {
	tr := telemetry.NewTracer(0)
	open := tr.Begin("sim.run")
	done := open.Child("sim.captures")
	done.End()
	// open is never ended.
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Unfinished) != 1 || trace.Unfinished[0] != "sim.run" {
		t.Fatalf("Unfinished = %v, want [sim.run]", trace.Unfinished)
	}
	// The finished child of an unfinished parent becomes a root.
	if len(trace.Roots) != 1 || trace.Roots[0].Name != "sim.captures" {
		t.Fatalf("roots = %+v, want the orphaned child", trace.Roots)
	}
}

// TestOutOfOrderEnd covers children ended after their parent (legal with
// concurrent workers): the tree still builds, and the child's interval is
// clamped into the parent for self-time purposes.
func TestOutOfOrderEnd(t *testing.T) {
	events := []telemetry.Event{
		bev(1, 0, "parent", 0),
		bev(2, 1, "child", 10),
		eev(1, 50, nil), // parent ends first
		eev(2, 80, nil), // child outlives it
	}
	trace, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	p := trace.Roots[0]
	if len(p.Children) != 1 {
		t.Fatalf("children = %d, want 1", len(p.Children))
	}
	// Child covers [10,80) but only [10,50) lies inside the parent:
	// parent self = 50 - 40 = 10ms; child self = its full 70ms.
	if got := ms(p.Self()); got != 10 {
		t.Fatalf("parent self = %dms, want 10", got)
	}
	if got := ms(p.Children[0].Self()); got != 70 {
		t.Fatalf("child self = %dms, want 70", got)
	}
}

// TestOrphanEnds covers end events whose begin was dropped at the buffer
// cap: counted, never fatal.
func TestOrphanEnds(t *testing.T) {
	events := []telemetry.Event{
		bev(5, 0, "kept", 0),
		eev(5, 10, nil),
		eev(99, 20, nil), // begin for 99 fell to the cap
	}
	trace, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if trace.OrphanEnds != 1 || len(trace.Spans) != 1 {
		t.Fatalf("orphans=%d spans=%d, want 1/1", trace.OrphanEnds, len(trace.Spans))
	}
}

// TestDroppedSpanAccounting: a cap-limited tracer's digest must report
// its drops, and the surviving JSONL must still parse with the truncation
// visible as unfinished spans.
func TestDroppedSpanAccounting(t *testing.T) {
	tr := telemetry.NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Begin("burst").End()
	}
	if got := tr.Dropped(); got != 7 { // 10 events total, 3 stored
		t.Fatalf("Dropped = %d, want 7", got)
	}
	if got := RenderTracer(tr, 0); !strings.Contains(got, "events dropped at buffer cap: 7\n") {
		t.Errorf("digest does not report the drop count:\n%s", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	trace, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Stored events: b1, e1, b2 — one finished span, one unfinished.
	if len(trace.Spans) != 1 || len(trace.Unfinished) != 1 {
		t.Fatalf("spans=%d unfinished=%v, want 1 finished + 1 unfinished", len(trace.Spans), trace.Unfinished)
	}
}

// TestRenderTracer: the exit digest of a live tracer is RenderSummary over
// its events — phases, slowest spans capped at topK — with no drop line
// when nothing was dropped, and a nil tracer digests to an empty trace.
func TestRenderTracer(t *testing.T) {
	tr := telemetry.NewTracer(0)
	for i := 0; i < 3; i++ {
		tr.Begin("fast").End()
	}
	slow := tr.Begin("slow")
	slow.Child("nested").End()
	slow.Child("nested").End()
	time.Sleep(time.Millisecond)
	slow.End()

	trace, err := Build(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	got := RenderTracer(tr, 2)
	if want := trace.RenderSummary(2); got != want {
		t.Fatalf("RenderTracer differs from RenderSummary:\n%s\nwant:\n%s", got, want)
	}
	for _, want := range []string{"trace: 12 events, 6 spans, 4 roots", "slow", "fast", "nested", "top 2 slowest spans:\n  slow "} {
		if !strings.Contains(got, want) {
			t.Errorf("digest missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "dropped") {
		t.Errorf("digest mentions drops with none dropped:\n%s", got)
	}
	if got := RenderTracer(nil, 0); got != "trace: 0 events, 0 spans, 0 roots\n" {
		t.Errorf("nil tracer digest = %q", got)
	}
}

// TestTracerSpansPairUp: spans a live tracer records reassemble into
// parent-linked spans; a span still open at export is omitted from Spans
// and listed as unfinished, and ending a parent before its child (workers
// may outlive the spawning span) still pairs both up.
func TestTracerSpansPairUp(t *testing.T) {
	tr := telemetry.NewTracer(0)
	open := tr.Begin("still-open")
	open.Child("closed").End()
	parent := tr.Begin("parent")
	child := parent.Child("child")
	parent.End() // out of order: parent first
	child.End()

	trace, err := Build(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Span{}
	for _, sp := range trace.Spans {
		byName[sp.Name] = sp
	}
	if len(trace.Spans) != 3 || byName["still-open"] != nil {
		t.Fatalf("spans = %d (%v), want closed, parent, child", len(trace.Spans), byName)
	}
	if len(trace.Unfinished) != 1 || trace.Unfinished[0] != "still-open" {
		t.Fatalf("unfinished = %v, want [still-open]", trace.Unfinished)
	}
	p, c := byName["parent"], byName["child"]
	if c.Parent != p.ID || len(p.Children) != 1 || p.Children[0] != c {
		t.Fatal("out-of-order end broke parent linkage")
	}
	if c.EndNs < p.EndNs {
		t.Errorf("child end %d before parent end %d, want child to outlive parent", c.EndNs, p.EndNs)
	}
	// The closed child of the unfinished span has no finished parent, so
	// it roots.
	rooted := false
	for _, r := range trace.Roots {
		rooted = rooted || r == byName["closed"]
	}
	if !rooted {
		t.Error("child of an unfinished span is not a root")
	}
}

// TestParseErrorsCarryLineNumbers rejects each class of malformed input
// with the offending 1-based line number.
func TestParseErrorsCarryLineNumbers(t *testing.T) {
	good := `{"ev":"b","id":1,"name":"x","wallNs":5}`
	cases := []struct {
		name  string
		input string
		line  int
		want  string
	}{
		{"truncated json", good + "\n" + `{"ev":"e","id":1,"wall`, 2, "malformed"},
		{"not json", "hello\n", 1, "malformed"},
		{"unknown field", `{"ev":"b","id":1,"name":"x","wallNs":5,"bogus":1}`, 1, "malformed"},
		{"empty line", good + "\n\n" + good, 2, "empty line"},
		{"unknown kind", `{"ev":"q","id":1,"wallNs":5}`, 1, `unknown event kind "q"`},
		{"zero id", `{"ev":"e","id":0,"wallNs":5}`, 1, "non-positive span id"},
		{"negative id", `{"ev":"e","id":-3,"wallNs":5}`, 1, "non-positive span id"},
		{"nameless begin", `{"ev":"b","id":1,"wallNs":5}`, 1, "begin event without a name"},
		{"trailing data", good + ` {"x":1}`, 1, "trailing data"},
		{"duplicate begin", good + "\n" + good, 2, "duplicate begin"},
		{"duplicate end", good + "\n" + `{"ev":"e","id":1,"wallNs":6}` + "\n" + `{"ev":"e","id":1,"wallNs":7}`, 3, "duplicate end"},
		{"end before begin", good + "\n" + `{"ev":"e","id":1,"wallNs":4}`, 2, "ends before it begins"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("Parse accepted malformed input")
			}
			var pe *telemetry.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *ParseError", err)
			}
			if pe.Line != tc.line {
				t.Fatalf("error %q on line %d, want line %d", err, pe.Line, tc.line)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSelfTimeOverlappingChildren: overlapping child intervals (parallel
// workers under one parent) are merged, not summed, before subtraction.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	events := []telemetry.Event{
		bev(1, 0, "parent", 0),
		bev(2, 1, "a", 10),
		bev(3, 1, "b", 20), // overlaps a
		bev(4, 1, "c", 60),
		eev(2, 30, nil),
		eev(3, 50, nil),
		eev(4, 70, nil),
		eev(1, 100, nil),
	}
	trace, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	// Union of children: [10,50) ∪ [60,70) = 50ms covered; self = 50ms.
	if got := ms(trace.Roots[0].Self()); got != 50 {
		t.Fatalf("parent self = %dms, want 50", got)
	}
	phases := trace.Phases()
	if phases[0].Name != "parent" || ms(phases[0].Self) != 50 {
		t.Fatalf("top phase = %+v, want parent/50ms", phases[0])
	}
}

// TestCriticalPath pins the last-finishing-child walk on a known tree.
func TestCriticalPath(t *testing.T) {
	events := []telemetry.Event{
		bev(1, 0, "root", 0),
		bev(2, 1, "early", 10),
		eev(2, 40, nil),
		bev(3, 1, "late", 30), // overlaps early, finishes last
		eev(3, 90, nil),
		eev(1, 100, nil),
	}
	trace, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	steps := trace.CriticalPath()
	// Chronological: root [0,10) self, early [10,30), late [30,90),
	// root [90,100) self.
	want := []struct {
		name     string
		from, to int64
	}{
		{"root", 0, 10},
		{"early", 10, 30},
		{"late", 30, 90},
		{"root", 90, 100},
	}
	if len(steps) != len(want) {
		t.Fatalf("critical path has %d steps, want %d: %+v", len(steps), len(want), steps)
	}
	var total time.Duration
	for i, s := range steps {
		if s.Span.Name != want[i].name || ms(time.Duration(s.FromNs)) != want[i].from || ms(time.Duration(s.ToNs)) != want[i].to {
			t.Fatalf("step %d = %s [%d,%d)ms, want %s [%d,%d)", i,
				s.Span.Name, ms(time.Duration(s.FromNs)), ms(time.Duration(s.ToNs)),
				want[i].name, want[i].from, want[i].to)
		}
		total += s.Dur()
	}
	if total != trace.Roots[0].Dur() {
		t.Fatalf("path sums to %v, want root duration %v", total, trace.Roots[0].Dur())
	}
}

// TestFolded pins the folded-stack output: stacks sorted, self time in µs.
func TestFolded(t *testing.T) {
	events := []telemetry.Event{
		bev(1, 0, "root", 0),
		bev(2, 1, "leaf", 10),
		eev(2, 30, nil),
		eev(1, 100, nil),
	}
	trace, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	got := trace.Folded()
	want := []string{
		"root 80000",      // 100 - 20 covered = 80ms self
		"root;leaf 20000", // 20ms self
	}
	if len(got) != len(want) {
		t.Fatalf("folded = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("folded[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestFoldedSanitizesFrames pins the separator handling: a ";" in a span
// name would split one frame into two, and a " " would terminate the
// stack before the value — both must be replaced, not emitted.
func TestFoldedSanitizesFrames(t *testing.T) {
	events := []telemetry.Event{
		bev(1, 0, "load data; phase one", 0),
		bev(2, 1, "inner step", 10),
		eev(2, 30, nil),
		eev(1, 100, nil),
	}
	trace, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	got := trace.Folded()
	want := []string{
		"load_data__phase_one 80000",
		"load_data__phase_one;inner_step 20000",
	}
	if len(got) != len(want) {
		t.Fatalf("folded = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("folded[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Every emitted line must have exactly one space (the value
	// separator) and frames free of the ";" separator except between
	// frames — i.e. the line splits into stack and integer value.
	for _, line := range got {
		parts := strings.Split(line, " ")
		if len(parts) != 2 {
			t.Fatalf("line %q has %d space-separated fields, want 2", line, len(parts))
		}
	}
}

// TestCompare pins the diff: rows by |delta|, signed attribution shares,
// attribute-change labels, request-ID excluded.
func TestCompare(t *testing.T) {
	a, err := Build([]telemetry.Event{
		bev(1, 0, "nn.infer", 0), eev(1, 100, map[string]string{"quantized": "false", telemetry.RequestIDAttr: "aaaa"}),
		bev(2, 0, "sim.run", 200), eev(2, 240, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build([]telemetry.Event{
		bev(1, 0, "nn.infer", 0), eev(1, 40, map[string]string{"quantized": "true", telemetry.RequestIDAttr: "bbbb"}),
		bev(2, 0, "sim.run", 200), eev(2, 250, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := Compare(a, b)
	if ms(d.Net()) != -50 { // -60 (nn.infer) + 10 (sim.run)
		t.Fatalf("net = %v, want -50ms", d.Net())
	}
	if len(d.Rows) != 2 || d.Rows[0].Name != "nn.infer" || d.Rows[1].Name != "sim.run" {
		t.Fatalf("rows = %+v, want nn.infer first by |delta|", d.Rows)
	}
	if ms(d.Rows[0].Delta) != -60 {
		t.Fatalf("nn.infer delta = %v, want -60ms", d.Rows[0].Delta)
	}
	if got := d.Rows[0].AttrPct; got != 120 { // -60/-50
		t.Fatalf("nn.infer attr%% = %v, want 120", got)
	}
	if got := d.Rows[1].AttrPct; got != -20 { // +10/-50
		t.Fatalf("sim.run attr%% = %v, want -20", got)
	}
	if len(d.AttrChanges) != 1 {
		t.Fatalf("attr changes = %+v, want exactly the quantized flip", d.AttrChanges)
	}
	c := d.AttrChanges[0]
	if c.Phase != "nn.infer" || c.Key != "quantized" || c.A != "false" || c.B != "true" {
		t.Fatalf("attr change = %+v, want nn.infer quantized false->true", c)
	}
}

// TestDeterministicRendering: every renderer must produce identical bytes
// when the same input is parsed and rendered twice.
func TestDeterministicRendering(t *testing.T) {
	events := []telemetry.Event{
		bev(1, 0, "root", 0),
		bev(2, 1, "x", 5), eev(2, 20, map[string]string{"k": "v", "a": "b"}),
		bev(3, 1, "y", 20), eev(3, 60, nil),
		eev(1, 100, nil),
	}
	input := jsonl(t, events)
	render := func() string {
		tr, err := Parse(bytes.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := Parse(bytes.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		return tr.RenderSummary(0) + tr.RenderShape() + tr.RenderCritical() +
			strings.Join(tr.Folded(), "\n") + Compare(tr, tr2).Render()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs from first:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestRenderShapeIgnoresTimings: two traces with identical structure but
// different timestamps must render the same shape.
func TestRenderShapeIgnoresTimings(t *testing.T) {
	mk := func(scale int64) *Trace {
		tr, err := Build([]telemetry.Event{
			bev(1, 0, "root", 0),
			bev(2, 1, "work", 1*scale), eev(2, 2*scale, nil),
			bev(3, 1, "work", 3*scale), eev(3, 5*scale, nil),
			eev(1, 7*scale, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if a, b := mk(1).RenderShape(), mk(97).RenderShape(); a != b {
		t.Fatalf("shapes differ:\n%s\nvs\n%s", a, b)
	}
}
