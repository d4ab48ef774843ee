package bundle

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"kodan/internal/hw"
)

// FuzzRead feeds arbitrary bytes to Read, the entry point for bundles
// loaded from disk. It must never panic, and any bundle it accepts must
// survive Write → Read unchanged: the re-read bundle equals the accepted
// one and writes back to identical bytes. The committed corpus under
// testdata/fuzz/FuzzRead adds invalid UTF-8, escapes, extreme floats,
// duplicate keys and trailing bytes to the seeds below.
func FuzzRead(f *testing.F) {
	sel, prof, stats, est := sampleInputs()
	b, err := New(4, "resnet50dilated-ppm-deepsup", hw.Orin15W, sel, prof, stats, 24*time.Second, 0.21, est)
	if err != nil {
		f.Fatal(err)
	}
	var sample bytes.Buffer
	if err := b.Write(&sample); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := b.Write(&out); err != nil {
			t.Fatalf("accepted bundle does not write: %v", err)
		}
		again, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written bundle does not read back: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, b) {
			t.Fatalf("read back %+v, want %+v", again, b)
		}
		var out2 bytes.Buffer
		if err := again.Write(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out2.Bytes(), out.Bytes()) {
			t.Fatalf("rewrite differs:\n%s\nvs\n%s", out2.Bytes(), out.Bytes())
		}
	})
}
