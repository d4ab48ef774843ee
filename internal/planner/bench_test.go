package planner

import (
	"context"
	"fmt"
	"testing"

	"kodan/internal/policy"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// BenchmarkBuild times one full hybrid plan: the selection-logic sweep
// over the paper's four tilings, then the per-context placement search at
// the chosen tiling, at the reference costs — the path
// kodan.Application.PlanHybrid takes.
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
		base, _ := policy.Optimize(profiles, env.Policy)
		for _, prof := range profiles {
			if prof.Tiling == base.Tiling {
				if _, err := DecideCtx(b.Context(), prof, base, env); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// benchCase builds a mission-like placement problem: k measured-looking
// contexts at a 3x3 tiling, App 4 on the Orin at the reference costs,
// FillIdle, a shared link pool of half a frame, a contact every
// four frames, the given deferral buffer, and the optimizer's base.
func benchCase(k int, buffer float64) (policy.TilingProfile, policy.Selection, Env) {
	prof := randProfileK(xrand.New(29), k)
	env := testEnv()
	env.Policy.FillIdle = true
	env.Policy.CapacityFrac = 0.5
	env.FramesBetweenContacts = 4
	env.BufferFrames = buffer
	return prof, baseFor(prof, env), env
}

// BenchmarkDecide times the placement search alone (no selection-logic
// sweep) over eight contexts, at the 16- and 64-frame buffers the mission
// workload plans with.
func BenchmarkDecide(b *testing.B) {
	for _, buffer := range []float64{16, 64} {
		b.Run(fmt.Sprintf("buffer=%v", buffer), func(b *testing.B) {
			prof, base, env := benchCase(8, buffer)
			ctx := context.Background()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DecideCtx(ctx, prof, base, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
