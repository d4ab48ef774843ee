package telemetry_test

import (
	"strings"
	"testing"

	"kodan/internal/telemetry"
	"kodan/internal/telemetry/analyze"
)

// TestSummarizeDroppedAccounting: the tracer's exit digest must surface the
// cap's dropped-event count and digest only the spans that survived.
func TestSummarizeDroppedAccounting(t *testing.T) {
	tr := telemetry.NewTracer(4)
	for i := 0; i < 8; i++ {
		tr.Begin("burst").End()
	}
	if got := tr.Dropped(); got != 12 { // 16 events, 4 stored
		t.Fatalf("Dropped = %d, want 12", got)
	}
	got := analyze.RenderTracer(tr, 0)
	if !strings.Contains(got, "trace: 4 events, 2 spans, 2 roots\n") { // b1,e1,b2,e2 stored
		t.Errorf("digest does not cover exactly the 2 stored spans:\n%s", got)
	}
	if !strings.Contains(got, "events dropped at buffer cap: 12\n") {
		t.Errorf("digest does not mention the drop count:\n%s", got)
	}
}
