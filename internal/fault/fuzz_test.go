package fault

import (
	"bytes"
	"testing"
)

// FuzzReadJSON feeds arbitrary bytes to ReadJSON, the entry point for
// fault schedules loaded from disk. It must never panic, and any schedule
// it accepts must round-trip: WriteJSON → ReadJSON → WriteJSON reproduces
// the first write byte for byte. The committed corpus under
// testdata/fuzz/FuzzReadJSON holds generated schedules at three
// intensities plus hand-written edge cases.
func FuzzReadJSON(f *testing.F) {
	var sample bytes.Buffer
	if err := Generate(genConfig(0.5)).WriteJSON(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte(`{"windows":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := s.WriteJSON(&out); err != nil {
			t.Fatalf("accepted schedule does not write: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written schedule does not read back: %v\n%s", err, out.Bytes())
		}
		var out2 bytes.Buffer
		if err := again.WriteJSON(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out2.Bytes(), out.Bytes()) {
			t.Fatalf("rewrite differs:\n%s\nvs\n%s", out2.Bytes(), out.Bytes())
		}
	})
}
