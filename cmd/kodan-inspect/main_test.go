package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kodan/internal/telemetry"
	"kodan/internal/telemetry/events"
)

// inspect runs `kodan-inspect FAMILY ARGS...` through the same dispatch
// main uses and returns its exit code and error.
func inspect(family string, args []string, stdout io.Writer) (int, error) {
	return run(append([]string{family}, args...), stdout)
}

// TestRunDispatch: the top level accepts the two families and help, and
// rejects everything else with exit code 1.
func TestRunDispatch(t *testing.T) {
	var out bytes.Buffer
	if code, err := run([]string{"help"}, &out); err != nil || code != 0 {
		t.Fatalf("help: code %d, err %v", code, err)
	}
	for _, want := range []string{"kodan-inspect trace summary", "kodan-inspect events anomalies"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("usage missing %q:\n%s", want, out.String())
		}
	}
	for _, args := range [][]string{nil, {"spans"}} {
		if code, err := run(args, &bytes.Buffer{}); err == nil || code != 1 {
			t.Errorf("run(%v): code %d, err %v; want exit 1 with an error", args, code, err)
		}
	}
}

// writeTrace records a small two-phase trace and writes its JSONL to a
// temp file, returning the path. quantized toggles the variant attribute
// so diff tests see an attribute flip.
func writeTrace(t *testing.T, quantized string) string {
	t.Helper()
	tr := telemetry.NewTracer(0)
	root := tr.Begin("figure.fig8")
	c := root.Child("nn.infer")
	c.Set("quantized", quantized)
	c.End()
	root.End()
	path := filepath.Join(t.TempDir(), "trace-"+quantized+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSubcommands(t *testing.T) {
	a := writeTrace(t, "false")
	b := writeTrace(t, "true")
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"summary", []string{"summary", a}, []string{"figure.fig8", "nn.infer", "2 spans"}},
		{"summary shape", []string{"summary", "-shape", a}, []string{"figure.fig8 1", "nn.infer 1"}},
		{"critical", []string{"critical", a}, []string{"critical path", "figure.fig8"}},
		{"folded", []string{"folded", a}, []string{"figure.fig8;nn.infer"}},
		{"diff", []string{"diff", a, b}, []string{"trace diff", "nn.infer", "quantized: false -> true"}},
		{"help", []string{"help"}, []string{"usage:"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if code, err := inspect("trace", tc.args, &out); err != nil || code != 0 {
				t.Fatalf("trace %v: code %d, err %v", tc.args, code, err)
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output of %v missing %q:\n%s", tc.args, want, out.String())
				}
			}
		})
	}
}

func TestRunDeterministicOutput(t *testing.T) {
	a := writeTrace(t, "false")
	b := writeTrace(t, "true")
	for _, args := range [][]string{
		{"summary", a}, {"summary", "-shape", a}, {"critical", a},
		{"folded", a}, {"diff", a, b},
	} {
		var first bytes.Buffer
		if _, err := inspect("trace", args, &first); err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if _, err := inspect("trace", args, &second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%v output differs across runs", args)
		}
	}
}

func TestRunErrors(t *testing.T) {
	a := writeTrace(t, "false")
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"ev\":\"b\",\"id\":1,\"name\":\"x\",\"wallNs\":1}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no subcommand", nil, "missing subcommand"},
		{"unknown subcommand", []string{"explode"}, "unknown subcommand"},
		{"summary no file", []string{"summary"}, "exactly one trace file"},
		{"diff one file", []string{"diff", a}, "exactly two trace files"},
		{"missing file", []string{"summary", filepath.Join(t.TempDir(), "nope.jsonl")}, "no such file"},
		{"malformed line number", []string{"summary", bad}, "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			code, err := inspect("trace", tc.args, &out)
			if err == nil || code != 1 {
				t.Fatalf("trace %v: code %d, err %v; want exit 1 with an error containing %q", tc.args, code, err, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// writeJournal materializes a journal file for the CLI to consume.
func writeJournal(t *testing.T, j *events.Journal) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := events.WriteFile(j, path); err != nil {
		t.Fatal(err)
	}
	return path
}

var epoch = time.Date(2027, 3, 14, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) int64 { return epoch.Add(d).UnixNano() }

// cleanJournal is a steady mission the anomaly engine stays quiet on.
func cleanJournal() *events.Journal {
	j := events.NewJournal()
	for i := 0; i < 24; i++ {
		j.Emit(events.Event{SimNs: at(time.Duration(i) * 15 * time.Minute), Type: events.Capture, Sat: 0, Detail: "P001R001"})
	}
	for i := 0; i < 4; i++ {
		base := time.Duration(i) * 90 * time.Minute
		j.Emit(events.Event{SimNs: at(base), Type: events.ContactStart, Sat: 0, Station: "Svalbard"})
		j.Emit(events.Event{SimNs: at(base + 8*time.Minute), Type: events.ContactEnd, Sat: 0, Station: "Svalbard", Value: 480})
		j.Emit(events.Event{SimNs: at(base + time.Minute), Type: events.DownlinkGrant, Sat: 0, Station: "Svalbard", Value: 300})
	}
	return j
}

// starvedJournal is the same mission with every grant removed — the
// contact-starvation rule must fire.
func starvedJournal() *events.Journal {
	j := events.NewJournal()
	for i := 0; i < 24; i++ {
		j.Emit(events.Event{SimNs: at(time.Duration(i) * 15 * time.Minute), Type: events.Capture, Sat: 0, Detail: "P001R001"})
	}
	return j
}

func TestSummarySubcommand(t *testing.T) {
	path := writeJournal(t, cleanJournal())
	var out bytes.Buffer
	code, err := inspect("events", []string{"summary", path}, &out)
	if err != nil || code != 0 {
		t.Fatalf("summary: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "journal: 36 events") {
		t.Fatalf("summary output = %q", out.String())
	}
}

func TestTimelineSubcommand(t *testing.T) {
	path := writeJournal(t, cleanJournal())
	var out bytes.Buffer
	code, err := inspect("events", []string{"timeline", "-width", "40", path}, &out)
	if err != nil || code != 0 {
		t.Fatalf("timeline: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "mission timeline:") || !strings.Contains(out.String(), "sat 0") {
		t.Fatalf("timeline output = %q", out.String())
	}
	// Deterministic: same file, same bytes.
	var again bytes.Buffer
	if _, err := inspect("events", []string{"timeline", "-width", "40", path}, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out.String() {
		t.Fatal("timeline render unstable across invocations")
	}
}

func TestAnomaliesExitCodes(t *testing.T) {
	clean := writeJournal(t, cleanJournal())
	var out bytes.Buffer
	code, err := inspect("events", []string{"anomalies", clean}, &out)
	if err != nil || code != 0 {
		t.Fatalf("clean journal: code %d, err %v, out %q", code, err, out.String())
	}
	if !strings.Contains(out.String(), "anomalies: none") {
		t.Fatalf("clean output = %q", out.String())
	}

	starved := writeJournal(t, starvedJournal())
	out.Reset()
	code, err = inspect("events", []string{"anomalies", starved}, &out)
	if err != nil {
		t.Fatalf("starved journal err: %v", err)
	}
	if code != 2 {
		t.Fatalf("starved journal exit code = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "contact-starvation") {
		t.Fatalf("starved output = %q", out.String())
	}
}

func TestAnomaliesThresholdValidation(t *testing.T) {
	path := writeJournal(t, cleanJournal())
	for _, args := range [][]string{
		{"anomalies", "-starvation-frac", "0", path},
		{"anomalies", "-starvation-frac", "1.5", path},
		{"anomalies", "-gap-factor", "0.5", path},
		{"anomalies", "-corr-frac", "2", path},
		{"anomalies", "-min-fault", "10ms", path},
	} {
		if code, err := inspect("events", args, &bytes.Buffer{}); err == nil || code != 1 {
			t.Fatalf("args %v accepted (code %d, err %v)", args, code, err)
		}
	}
}

func TestDiffSubcommand(t *testing.T) {
	a := writeJournal(t, cleanJournal())
	b := writeJournal(t, starvedJournal())
	var out bytes.Buffer
	code, err := inspect("events", []string{"diff", a, b}, &out)
	if err != nil || code != 0 {
		t.Fatalf("diff: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "journal diff:") || !strings.Contains(out.String(), "downlink_grant") {
		t.Fatalf("diff output = %q", out.String())
	}
	if code, err := inspect("events", []string{"diff", a}, &bytes.Buffer{}); err == nil || code != 1 {
		t.Fatal("diff with one file accepted")
	}
}

func TestBadInputs(t *testing.T) {
	if code, err := inspect("events", nil, &bytes.Buffer{}); err == nil || code != 1 {
		t.Fatal("no subcommand accepted")
	}
	if code, err := inspect("events", []string{"warp"}, &bytes.Buffer{}); err == nil || code != 1 {
		t.Fatal("unknown subcommand accepted")
	}
	if code, err := inspect("events", []string{"summary", "/does/not/exist.jsonl"}, &bytes.Buffer{}); err == nil || code != 1 {
		t.Fatal("missing file accepted")
	}
	// A corrupt journal is rejected with a line number.
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"simNs\":1,\"type\":\"capture\",\"sat\":0}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := inspect("events", []string{"summary", bad}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("corrupt journal error = %v", err)
	}
	var out bytes.Buffer
	if code, err := inspect("events", []string{"help"}, &out); err != nil || code != 0 || !strings.Contains(out.String(), "usage:") {
		t.Fatal("help failed")
	}
}
