package link

import (
	"testing"
	"time"

	"kodan/internal/orbit"
	"kodan/internal/station"
)

// BenchmarkLinkAllocate times one day of downlink allocation for an
// 8-satellite Landsat constellation over the Landsat ground segment.
func BenchmarkLinkAllocate(b *testing.B) {
	sats := orbit.Constellation(orbit.Landsat8(t0), 8)
	stations := station.LandsatSegment()
	windows := make([][][]station.Window, len(stations))
	for si := range stations {
		windows[si] = make([][]station.Window, len(sats))
	}
	for j, e := range sats {
		for si, ws := range station.ContactWindows(stations, e, t0, 24*time.Hour) {
			windows[si][j] = ws
		}
	}
	for b.Loop() {
		Allocate(Problem{
			Start: t0, Span: 24 * time.Hour, Windows: windows,
		})
	}
}
