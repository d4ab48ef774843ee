//go:build !race

// The race detector makes sync.Pool drop a random share of the items put
// back, so the pooling checks here only hold in normal builds.

package policy

import (
	"runtime"
	"testing"
)

// TestExhaustiveSearchAllocations asserts a warm sweep reuses its pooled
// score table: unpooled, each of the four 4^8 sweeps would allocate a
// 1.5 MB table per call.
func TestExhaustiveSearchAllocations(t *testing.T) {
	profiles := sweepProfiles(8)
	env := testEnv()
	Optimize(profiles, env)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 20
	for i := 0; i < calls; i++ {
		Optimize(profiles, env)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 1<<20 {
		t.Fatalf("Optimize allocates %d bytes per call, want the score tables reused", perCall)
	}
}
