package value

import (
	"testing"

	"kodan/internal/xrand"
)

// BenchmarkAblationQueuePolicy compares the FIFO downlink queue against a
// density-priority queue on a fixed chunk mix: a smarter queue partially
// substitutes for elision.
func BenchmarkAblationQueuePolicy(b *testing.B) {
	rng := xrand.New(3)
	chunks := make([]Chunk, 512)
	for i := range chunks {
		bits := rng.Range(0.5, 2)
		chunks[i] = Chunk{Bits: bits, ValueBits: bits * rng.Float64()}
	}
	var fifoVal, prioVal float64
	for i := 0; i < b.N; i++ {
		_, fifoVal = Drain(chunks, 100)
		_, prioVal = DrainPriority(chunks, 100)
	}
	b.ReportMetric(fifoVal, "fifo-value")
	b.ReportMetric(prioVal, "priority-value")
}
