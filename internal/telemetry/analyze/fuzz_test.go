package analyze

import (
	"bytes"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the trace parser. Parse must never
// panic; on input it accepts, every analysis must run, render the same
// bytes for the same input, and survive a re-export: writing the parsed
// events back as JSONL and reading them again reproduces that JSONL.
func FuzzParse(f *testing.F) {
	good := `{"ev":"b","id":1,"name":"sim.run","wallNs":5}` + "\n" +
		`{"ev":"b","id":2,"parent":1,"name":"sim.captures","wallNs":6}` + "\n" +
		`{"ev":"e","id":2,"wallNs":9,"simStartNs":1,"simEndNs":4,"attrs":{"sat":"0"}}` + "\n" +
		`{"ev":"e","id":1,"wallNs":12}` + "\n"
	f.Add([]byte(good))
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte(`{"ev":"e","id":7,"wallNs":1}`))
	f.Add([]byte(`{"ev":"b","id":1,"name":"x","wallNs":5} {"x":1}`))
	f.Add([]byte(`{"ev":"b","id":1,"name":"x","wallNs":9223372036854775807}` + "\n" + `{"ev":"e","id":1,"wallNs":-9223372036854775808}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		out := jsonl(t, events)
		again, err := ReadEvents(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-export does not parse: %v\n%s", err, out)
		}
		if out2 := jsonl(t, again); !bytes.Equal(out, out2) {
			t.Fatalf("re-export changed:\n%s\nvs\n%s", out, out2)
		}

		a, errA := Build(events)
		b, errB := Build(again)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("Build disagrees after re-export: %v vs %v", errA, errB)
		}
		if errA != nil {
			return
		}
		if a.RenderSummary(5) != b.RenderSummary(5) || a.RenderShape() != b.RenderShape() ||
			a.RenderCritical() != b.RenderCritical() {
			t.Fatal("renders differ for the same events")
		}
		var folded bytes.Buffer
		if err := WriteFolded(&folded, a); err != nil {
			t.Fatal(err)
		}
		_ = Compare(a, b).Render()
	})
}
