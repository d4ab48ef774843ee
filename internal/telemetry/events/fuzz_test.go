package events

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadJournal feeds arbitrary bytes to the journal reader. It must
// never panic, and a journal it accepts must round-trip: written back with
// WriteJSONL and read again, it yields the same events in canonical order,
// and a second write reproduces the first byte for byte.
func FuzzReadJournal(f *testing.F) {
	var sample bytes.Buffer
	if err := sampleJournal().WriteJSONL(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte(`{"simNs":1,"type":"capture","sat":0} {"x":1}`))
	f.Add([]byte(`{"simNs":2,"type":"fault_enter","sat":-1,"station":"Awarua","detail":"station_outage","value":1e308}` + "\n" +
		`{"simNs":1,"type":"downlink_grant","sat":3,"station":"Svalbard","value":-0}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		j := NewJournal()
		for _, e := range evs {
			j.Emit(e)
		}
		var out bytes.Buffer
		if err := j.WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		again, err := ReadJournal(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written journal does not read back: %v\n%s", err, out.Bytes())
		}
		Sort(evs)
		if !slices.Equal(again, evs) {
			t.Fatalf("read back %+v, want %+v", again, evs)
		}
		j2 := NewJournal()
		for _, e := range again {
			j2.Emit(e)
		}
		var out2 bytes.Buffer
		if err := j2.WriteJSONL(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("second write differs:\n%s\nvs\n%s", out.Bytes(), out2.Bytes())
		}
	})
}
