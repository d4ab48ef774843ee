package mission

import "testing"

// BenchmarkMissionRun times one 14-day Kodan mission with idle filling and
// a 256 GB buffer, the shape of the perfbench mission step.
func BenchmarkMissionRun(b *testing.B) {
	cfg := kodanConfig(14)
	cfg.BufferBits = 256 * 8e9
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
