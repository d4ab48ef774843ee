package policy

import (
	"testing"

	"kodan/internal/app"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// sweepProfiles builds measured-looking profiles for the paper's four
// tilings with k contexts each: tile shares that sum to one, a spread of
// high-value fractions, and specialists that beat the generic model.
func sweepProfiles(k int) []TilingProfile {
	rng := xrand.New(19)
	var out []TilingProfile
	for _, tl := range tiling.PaperTilings() {
		tp := TilingProfile{Tiling: tl, Contexts: make([]ContextProfile, k)}
		total := 0.0
		for c := range tp.Contexts {
			share := rng.Range(0.5, 1.5)
			hv := rng.Float64()
			tp.Contexts[c] = ContextProfile{
				TileFrac:      share,
				HighValueFrac: hv,
				Generic:       conf(rng.Range(0.75, 0.85), rng.Range(0.15, 0.3), hv),
				Special:       conf(rng.Range(0.88, 0.95), rng.Range(0.05, 0.12), hv),
				Merged:        conf(rng.Range(0.83, 0.9), rng.Range(0.1, 0.2), hv),
			}
			total += share
		}
		for c := range tp.Contexts {
			tp.Contexts[c].TileFrac /= total
		}
		out = append(out, tp)
	}
	return out
}

// BenchmarkSelectionLogicSweep times one selection-logic generation for
// App 4 on the Orin: four tilings, each an exhaustive sweep over the
// actions of eight contexts.
func BenchmarkSelectionLogicSweep(b *testing.B) {
	profiles := sweepProfiles(8)
	env := testEnv()
	b.ReportAllocs()
	for b.Loop() {
		Optimize(profiles, env)
	}
}

// BenchmarkAblationElision isolates elision: all-specialized versus the
// optimizer's mixed policy for the heaviest app on the Orin.
func BenchmarkAblationElision(b *testing.B) {
	profiles := sweepProfiles(6)
	env := testEnv()
	env.App = app.App(7)
	var withElision, without float64
	for i := 0; i < b.N; i++ {
		_, est := Optimize(profiles, env)
		withElision = est.DVD
		prof := profiles[len(profiles)-1] // coarsest tiling
		sel := Selection{Tiling: prof.Tiling, Actions: make([]Action, len(prof.Contexts))}
		for c := range sel.Actions {
			sel.Actions[c] = Specialized
		}
		without = Evaluate(sel, prof, env).DVD
	}
	b.ReportMetric(withElision, "dvd-with-elision")
	b.ReportMetric(without, "dvd-all-specialized")
}
