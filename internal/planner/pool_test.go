//go:build !race

// The race detector makes sync.Pool drop a random share of the items put
// back, so the pooling checks here only hold in normal builds.

package planner

import (
	"context"
	"runtime"
	"testing"
)

// TestDecideAllocations asserts a warm placement search reuses its pooled
// score table: unpooled, each 4^8 search would allocate a 2 MB table.
func TestDecideAllocations(t *testing.T) {
	prof, base, env := benchCase(8, 64)
	ctx := context.Background()
	if _, err := DecideCtx(ctx, prof, base, env); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := DecideCtx(ctx, prof, base, env); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > 512<<10 {
		t.Fatalf("DecideCtx allocates %d bytes per call, want the score table reused", perCall)
	}
}
