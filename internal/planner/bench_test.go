package planner

import (
	"testing"

	"kodan/internal/policy"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// BenchmarkBuild times one full hybrid plan: the selection-logic sweep
// over the paper's four tilings, then the per-context placement search at
// the chosen tiling, at the reference costs.
func BenchmarkBuild(b *testing.B) {
	rng := xrand.New(23)
	var profiles []policy.TilingProfile
	for _, tl := range tiling.PaperTilings() {
		prof := randProfile(rng)
		prof.Tiling = tl
		profiles = append(profiles, prof)
	}
	env := testEnv()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildCtx(b.Context(), profiles, env); err != nil {
			b.Fatal(err)
		}
	}
}
