package events

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kodan/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// epoch is the synthetic mission start used across the package tests.
var epoch = time.Date(2027, 3, 14, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) int64 { return epoch.Add(d).UnixNano() }

// sampleJournal builds a small two-satellite, two-station mission with a
// fault window, grants, and a deferral replay — enough to exercise every
// event type.
func sampleJournal() *Journal {
	j := NewJournal()
	j.Emit(Event{Type: PlannerDisposition, Sat: -1, Detail: "C0->space", Value: 0.4})
	j.Emit(Event{Type: PlannerDisposition, Sat: -1, Detail: "C1->ground", Value: 0.6})
	for i := 0; i < 10; i++ {
		j.Emit(Event{SimNs: at(time.Duration(i) * 6 * time.Minute), Type: Capture, Sat: 0, Detail: "P001R001"})
	}
	j.Emit(Event{SimNs: at(2 * time.Minute), Type: SceneBoundary, Sat: 0, Detail: "P002R001", Value: 2})
	j.Emit(Event{SimNs: at(3 * time.Minute), Type: Capture, Sat: 1, Detail: "P003R004"})
	j.Emit(Event{SimNs: at(10 * time.Minute), Type: ContactStart, Sat: 0, Station: "Svalbard"})
	j.Emit(Event{SimNs: at(18 * time.Minute), Type: ContactEnd, Sat: 0, Station: "Svalbard", Value: 480})
	j.Emit(Event{SimNs: at(11 * time.Minute), Type: DownlinkGrant, Sat: 0, Station: "Svalbard", Value: 240})
	j.Emit(Event{SimNs: at(30 * time.Minute), Type: FaultEnter, Sat: -1, Station: "Awarua", Detail: "station_outage", Value: 1})
	j.Emit(Event{SimNs: at(50 * time.Minute), Type: FaultExit, Sat: -1, Station: "Awarua", Detail: "station_outage", Value: 1})
	j.Emit(Event{SimNs: at(40 * time.Minute), Type: FaultEnter, Sat: 1, Detail: "sensor_dropout", Value: 0.5})
	j.Emit(Event{SimNs: at(55 * time.Minute), Type: FaultExit, Sat: 1, Detail: "sensor_dropout", Value: 0.5})
	j.Emit(Event{SimNs: at(12 * time.Minute), Type: DeferEnqueue, Sat: 0, Value: 5e6})
	j.Emit(Event{SimNs: at(20 * time.Minute), Type: DeferDrain, Sat: 0, Value: 480})
	j.Emit(Event{SimNs: at(21 * time.Minute), Type: DeferOverflow, Sat: 0, Value: 2e6})
	j.Emit(Event{SimNs: at(12 * time.Minute), Type: BufferHighWater, Sat: 0, Value: 5e6})
	j.Emit(Event{SimNs: at(60 * time.Minute), Type: ContactStart, Sat: 1, Station: "Awarua"})
	j.Emit(Event{SimNs: at(65 * time.Minute), Type: ContactEnd, Sat: 1, Station: "Awarua", Value: 300})
	return j
}

func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	if j.Active() {
		t.Fatal("nil journal reports active")
	}
	j.Emit(Event{Type: Capture, Sat: 0}) // must not panic
	if j.Len() != 0 {
		t.Fatalf("nil journal Len = %d", j.Len())
	}
	if evs := j.Events(); evs != nil {
		t.Fatalf("nil journal Events = %v", evs)
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil journal WriteJSONL wrote %q, err %v", buf.String(), err)
	}
	counts := j.CountsByType()
	if len(counts) != len(Types) {
		t.Fatalf("nil journal CountsByType has %d keys, want %d", len(counts), len(Types))
	}
}

func TestContextPlumbing(t *testing.T) {
	if got := JournalFrom(context.Background()); got != nil {
		t.Fatalf("empty context yields journal %v", got)
	}
	j := NewJournal()
	ctx := WithJournal(context.Background(), j)
	if got := JournalFrom(ctx); got != j {
		t.Fatal("journal did not round-trip through the context")
	}
	// Attaching nil leaves the context untouched.
	if got := JournalFrom(WithJournal(context.Background(), nil)); got != nil {
		t.Fatal("nil attach produced a journal")
	}
}

// TestCanonicalOrderIndependentOfEmission is the worker-count determinism
// property in miniature: the same event set emitted in any order exports
// the same bytes.
func TestCanonicalOrderIndependentOfEmission(t *testing.T) {
	base := sampleJournal().Events()
	var want bytes.Buffer
	if err := sampleJournal().WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]Event(nil), base...)
		rng.Shuffle(len(shuffled), func(i, k int) { shuffled[i], shuffled[k] = shuffled[k], shuffled[i] })
		j := NewJournal()
		for _, e := range shuffled {
			j.Emit(e)
		}
		var got bytes.Buffer
		if err := j.WriteJSONL(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: shuffled emission changed the export:\n--- want\n%s--- got\n%s",
				trial, want.String(), got.String())
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	j := sampleJournal()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := WriteFile(j, path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := j.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip changed length: wrote %d, read %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d changed in round trip: wrote %+v, read %+v", i, want[i], got[i])
		}
	}
}

func TestReadJournalRejects(t *testing.T) {
	cases := []struct {
		name  string
		input string
		line  int
	}{
		{"empty line", "\n", 1},
		{"malformed json", "{not json}\n", 1},
		{"unknown field", `{"simNs":1,"type":"capture","sat":0,"bogus":1}` + "\n", 1},
		{"trailing data", `{"simNs":1,"type":"capture","sat":0} {"x":1}` + "\n", 1},
		{"unknown type", `{"simNs":1,"type":"warp_drive","sat":0}` + "\n", 1},
		{"negative sim time", `{"simNs":-5,"type":"capture","sat":0}` + "\n", 1},
		{"capture without sat", `{"simNs":1,"type":"capture","sat":-1}` + "\n", 1},
		{"grant without station", `{"simNs":1,"type":"downlink_grant","sat":0}` + "\n", 1},
		{"fault without kind", `{"simNs":1,"type":"fault_enter","sat":0}` + "\n", 1},
		{"second line bad", `{"simNs":1,"type":"capture","sat":0}` + "\n" + `{"simNs":2,"type":"nope","sat":0}` + "\n", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadJournal(strings.NewReader(tc.input))
			var pe *telemetry.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("want ParseError, got %v", err)
			}
			if pe.Line != tc.line {
				t.Fatalf("error on line %d, want %d: %v", pe.Line, tc.line, err)
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize(sampleJournal().Events())
	if st.Events != sampleJournal().Len() {
		t.Fatalf("Events = %d, want %d", st.Events, sampleJournal().Len())
	}
	if st.ByType[Capture] != 11 {
		t.Fatalf("captures = %d, want 11", st.ByType[Capture])
	}
	if len(st.Sats) != 2 || st.Sats[0].Sat != 0 || st.Sats[1].Sat != 1 {
		t.Fatalf("per-sat stats = %+v", st.Sats)
	}
	if st.Sats[0].Captures != 10 || st.Sats[0].Grants != 1 || st.Sats[0].GrantSecs != 240 {
		t.Fatalf("sat 0 stats = %+v", st.Sats[0])
	}
	if st.Sats[1].Faults != 1 {
		t.Fatalf("sat 1 faults = %d, want 1", st.Sats[1].Faults)
	}
	if got, want := st.Stations, []string{"Awarua", "Svalbard"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("stations = %v", got)
	}
	if st.Span() != 65*time.Minute {
		t.Fatalf("span = %v, want 65m", st.Span())
	}
	if !strings.Contains(st.Render(), "journal: ") {
		t.Fatal("render missing header")
	}
}

func TestTimelineGolden(t *testing.T) {
	got := RenderTimeline(sampleJournal().Events(), 64)
	goldenCompare(t, "timeline.golden", []byte(got))
}

func TestSummaryGolden(t *testing.T) {
	got := Summarize(sampleJournal().Events()).Render()
	goldenCompare(t, "summary.golden", []byte(got))
}

func TestTimelineEmpty(t *testing.T) {
	if got := RenderTimeline(nil, 0); got != "timeline: no mission-timed events\n" {
		t.Fatalf("empty timeline = %q", got)
	}
	// Planning-only journals have no mission time either.
	evs := []Event{{Type: PlannerDisposition, Sat: -1, Detail: "C0->space"}}
	if got := RenderTimeline(evs, 0); got != "timeline: no mission-timed events\n" {
		t.Fatalf("planning-only timeline = %q", got)
	}
}

func TestAnomaliesCleanJournalQuiet(t *testing.T) {
	// A steady mission — regular captures, regular grants, no faults —
	// must produce zero findings.
	j := NewJournal()
	for i := 0; i < 24; i++ {
		j.Emit(Event{SimNs: at(time.Duration(i) * 15 * time.Minute), Type: Capture, Sat: 0, Detail: "P001R001"})
	}
	for i := 0; i < 4; i++ {
		base := time.Duration(i) * 90 * time.Minute
		j.Emit(Event{SimNs: at(base), Type: ContactStart, Sat: 0, Station: "Svalbard"})
		j.Emit(Event{SimNs: at(base + 8*time.Minute), Type: ContactEnd, Sat: 0, Station: "Svalbard", Value: 480})
		j.Emit(Event{SimNs: at(base + time.Minute), Type: DownlinkGrant, Sat: 0, Station: "Svalbard", Value: 300})
	}
	if as := DetectAnomalies(j.Events(), DefaultThresholds()); len(as) != 0 {
		t.Fatalf("clean journal flagged: %v", as)
	}
}

func TestAnomalyBufferSaturation(t *testing.T) {
	j := NewJournal()
	j.Emit(Event{SimNs: at(time.Minute), Type: Capture, Sat: 0, Detail: "P001R001"})
	j.Emit(Event{SimNs: at(2 * time.Minute), Type: DeferOverflow, Sat: 0, Value: 3e6})
	j.Emit(Event{SimNs: at(3 * time.Minute), Type: DeferOverflow, Sat: 0, Value: 4e6})
	as := DetectAnomalies(j.Events(), DefaultThresholds())
	found := false
	for _, a := range as {
		if a.Rule == RuleBufferSaturation && a.Sat == 0 {
			found = true
			if !strings.Contains(a.Detail, "2 overflow event(s)") {
				t.Fatalf("saturation detail = %q", a.Detail)
			}
		}
	}
	if !found {
		t.Fatalf("buffer saturation not flagged: %v", as)
	}
}

func TestAnomalyCaptureGapAndCorrelation(t *testing.T) {
	// Steady 1-minute cadence with a 30-minute hole under a sensor-dropout
	// window: both the gap rule and the correlation rule should fire.
	j := NewJournal()
	cadence := time.Minute
	tt := time.Duration(0)
	for i := 0; i < 30; i++ {
		j.Emit(Event{SimNs: at(tt), Type: Capture, Sat: 0, Detail: "P001R001"})
		tt += cadence
	}
	j.Emit(Event{SimNs: at(tt), Type: FaultEnter, Sat: 0, Detail: "sensor_dropout", Value: 1})
	hole := 30 * time.Minute
	j.Emit(Event{SimNs: at(tt + hole), Type: FaultExit, Sat: 0, Detail: "sensor_dropout", Value: 1})
	tt += hole
	for i := 0; i < 30; i++ {
		j.Emit(Event{SimNs: at(tt), Type: Capture, Sat: 0, Detail: "P001R001"})
		tt += cadence
	}
	as := DetectAnomalies(j.Events(), DefaultThresholds())
	var rules []string
	for _, a := range as {
		rules = append(rules, a.Rule)
	}
	joined := strings.Join(rules, ",")
	if !strings.Contains(joined, RuleCaptureGap) {
		t.Fatalf("capture gap not flagged: %v", as)
	}
	if !strings.Contains(joined, RuleFaultThroughput) {
		t.Fatalf("fault correlation not flagged: %v", as)
	}
}

func TestAnomalyContactStarvation(t *testing.T) {
	j := NewJournal()
	for i := 0; i < 24; i++ {
		j.Emit(Event{SimNs: at(time.Duration(i) * 15 * time.Minute), Type: Capture, Sat: 0, Detail: "P001R001"})
	}
	as := DetectAnomalies(j.Events(), DefaultThresholds())
	found := false
	for _, a := range as {
		if a.Rule == RuleContactStarvation && a.Sat == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("starvation not flagged: %v", as)
	}
	if !strings.Contains(RenderAnomalies(as), RuleContactStarvation) {
		t.Fatal("render missing rule name")
	}
	if RenderAnomalies(nil) != "anomalies: none\n" {
		t.Fatalf("empty render = %q", RenderAnomalies(nil))
	}
}

func TestCompareJournals(t *testing.T) {
	a := sampleJournal().Events()
	// B: same mission minus satellite 0's grant and with extra captures on
	// satellite 1.
	var b []Event
	for _, e := range a {
		if e.Type == DownlinkGrant && e.Sat == 0 {
			continue
		}
		b = append(b, e)
	}
	for i := 0; i < 3; i++ {
		b = append(b, Event{SimNs: at(time.Duration(70+i) * time.Minute), Type: Capture, Sat: 1, Detail: "P003R004"})
	}
	d := CompareJournals(a, b)
	if d.EventsA != len(a) || d.EventsB != len(b) {
		t.Fatalf("totals = %d/%d, want %d/%d", d.EventsA, d.EventsB, len(a), len(b))
	}
	if d.Net() != 2 {
		t.Fatalf("net = %d, want +2", d.Net())
	}
	// Top row by |delta| is satellite 1's capture gain.
	top := d.Rows[0]
	if top.Type != Capture || top.Sat != 1 || top.Delta != 3 {
		t.Fatalf("top row = %+v", top)
	}
	// The dropped grant row carries its sim-time swing.
	var grantRow *DiffRow
	for i := range d.Rows {
		if d.Rows[i].Type == DownlinkGrant {
			grantRow = &d.Rows[i]
		}
	}
	if grantRow == nil || grantRow.Delta != -1 || grantRow.SecsA != 240 || grantRow.SecsB != 0 {
		t.Fatalf("grant row = %+v", grantRow)
	}
	out := d.Render()
	if !strings.Contains(out, "journal diff: events A") || !strings.Contains(out, "downlink_grant") {
		t.Fatalf("render = %q", out)
	}
	// Identical journals diff to all-zero deltas.
	same := CompareJournals(a, a)
	if same.Net() != 0 {
		t.Fatalf("self-diff net = %d", same.Net())
	}
	for _, r := range same.Rows {
		if r.Delta != 0 || r.AttrPct != 0 {
			t.Fatalf("self-diff row %+v", r)
		}
	}
}

func TestDiffDeterministic(t *testing.T) {
	a := sampleJournal().Events()
	b := a[:len(a)-2]
	first := CompareJournals(a, b).Render()
	for i := 0; i < 3; i++ {
		if got := CompareJournals(a, b).Render(); got != first {
			t.Fatalf("diff render unstable:\n--- first\n%s--- got\n%s", first, got)
		}
	}
}

// goldenCompare checks got against testdata/<name>, rewriting the file
// under -update.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test ./internal/telemetry/events -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}
