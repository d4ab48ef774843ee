package experiments

import (
	"context"
	"fmt"
	"strings"

	"kodan/internal/app"
	"kodan/internal/core"
	"kodan/internal/ctxengine"
	"kodan/internal/hw"
)

// AblationKRow is one cluster-count setting of the context-count ablation.
type AblationKRow struct {
	// K is the forced context count.
	K int
	// EngineAcc is the context engine's agreement with its clustering.
	EngineAcc float64
	// SpecPrecision is the specialized models' overall precision at the
	// coarsest tiling.
	SpecPrecision float64
	// KodanDVD is the optimized selection logic's DVD on the Orin.
	KodanDVD float64
}

// AblationContextCountCtx sweeps the number of generated contexts — the
// hyperparameter Section 3.3 calls "an exciting avenue for future work" —
// and measures its effect end to end: engine quality, specialized-model
// precision, and the final DVD of App 4 on the Orin. Each setting builds
// its own workspace (contexts shape everything downstream), so this is the
// most expensive ablation; it runs at the lab's Quick/Full dataset sizing.
// The per-K workspace builds run on the lab's worker pool.
func (l *Lab) AblationContextCountCtx(ctx context.Context, ks []int) ([]AblationKRow, error) {
	m, err := l.MissionCtx(ctx)
	if err != nil {
		return nil, err
	}
	d := m.Deployment(hw.Orin15W)
	return sweep(ctx, l, len(ks), func(ctx context.Context, j int) (AblationKRow, error) {
		cfg := l.transformConfig()
		cfg.Context = ctxengine.DefaultConfig()
		cfg.Context.Ks = []int{ks[j]}
		ws, err := core.NewWorkspaceCtx(ctx, cfg)
		if err != nil {
			return AblationKRow{}, err
		}
		art, err := ws.TransformAppCtx(ctx, app.App(4))
		if err != nil {
			return AblationKRow{}, err
		}
		_, est := art.SelectionLogic(d)
		coarse := art.Profiles[len(art.Profiles)-1]
		suite := art.Suites[coarse.Tiling.PerSide]
		return AblationKRow{
			K:             ws.Ctx.K,
			EngineAcc:     ws.Ctx.TrainAccuracy,
			SpecPrecision: suite.Quality.SpecialAll.Precision(),
			KodanDVD:      est.DVD,
		}, nil
	})
}

// RenderAblationContextCount formats the context-count ablation.
func RenderAblationContextCount(rows []AblationKRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: context count (App 4 on Orin 15W)\n")
	fmt.Fprintf(&b, "%4s %10s %10s %9s\n", "K", "EngineAcc", "SpecPrec", "KodanDVD")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d %10.3f %10.3f %9.3f\n", r.K, r.EngineAcc, r.SpecPrecision, r.KodanDVD)
	}
	return b.String()
}

// AblationSourceRow compares context sources end to end.
type AblationSourceRow struct {
	// Source names the context generation path.
	Source string
	// K is the resulting context count.
	K int
	// EngineAcc is the engine's training agreement.
	EngineAcc float64
	// KodanDVD is the optimized DVD of App 4 on the Orin.
	KodanDVD float64
}

// AblationContextSourceCtx compares automatic (clustered) contexts against
// expert (geography-class) contexts end to end — Section 3.2 presents the
// two as alternatives. The two workspace builds run on the lab's worker
// pool.
func (l *Lab) AblationContextSourceCtx(ctx context.Context) ([]AblationSourceRow, error) {
	m, err := l.MissionCtx(ctx)
	if err != nil {
		return nil, err
	}
	d := m.Deployment(hw.Orin15W)
	sources := []struct {
		name string
		s    ctxengine.Source
	}{{"automatic", ctxengine.Auto}, {"expert", ctxengine.Expert}}
	return sweep(ctx, l, len(sources), func(ctx context.Context, j int) (AblationSourceRow, error) {
		src := sources[j]
		cfg := l.transformConfig()
		cfg.Context = ctxengine.DefaultConfig()
		cfg.Context.Source = src.s
		ws, err := core.NewWorkspaceCtx(ctx, cfg)
		if err != nil {
			return AblationSourceRow{}, err
		}
		art, err := ws.TransformAppCtx(ctx, app.App(4))
		if err != nil {
			return AblationSourceRow{}, err
		}
		_, est := art.SelectionLogic(d)
		return AblationSourceRow{
			Source:    src.name,
			K:         ws.Ctx.K,
			EngineAcc: ws.Ctx.TrainAccuracy,
			KodanDVD:  est.DVD,
		}, nil
	})
}

// RenderAblationContextSource formats the source ablation.
func RenderAblationContextSource(rows []AblationSourceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: expert vs automatic contexts (App 4 on Orin 15W)\n")
	fmt.Fprintf(&b, "%-10s %4s %10s %9s\n", "Source", "K", "EngineAcc", "KodanDVD")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %4d %10.3f %9.3f\n", r.Source, r.K, r.EngineAcc, r.KodanDVD)
	}
	return b.String()
}
