package experiments

import (
	"context"
	"fmt"

	"kodan/internal/telemetry"
)

// Figure is one table or figure of the report.
type Figure struct {
	// Key names the figure everywhere: its figure.<Key> trace span,
	// kodan-bench's -only key and its BENCH_<Key>.json export.
	Key string
	// Run produces the figure's rendered text and its typed rows for CSV
	// and JSON export.
	Run func(ctx context.Context) (render string, rows any, err error)
}

// figure declares one registry entry: gen runs under the figure.<key>
// span, so traces group all work under the figure that caused it, and
// render formats its rows.
func figure[R any](l *Lab, key string, gen func(context.Context) (R, error), render func(R) string) Figure {
	return Figure{Key: key, Run: func(ctx context.Context) (string, any, error) {
		ctx, span := telemetry.StartSpan(l.probeCtx(ctx), "figure."+key)
		defer span.End()
		// The worker count is a variant attribute: it labels what differed
		// when two traces of the same figure are compared.
		span.Set("workers", fmt.Sprint(l.workers()))
		telemetry.ProbeFrom(ctx).Metrics.Scope("lab").Counter("figures").Inc()
		rows, err := gen(ctx)
		if err != nil {
			return "", nil, err
		}
		return render(rows), rows, nil
	}}
}

// Figures lists every table and figure of the report, in report order.
// It is the one place a figure is declared.
func (l *Lab) Figures() []Figure {
	return []Figure{
		// Table 1 is static data: no lab work, so no span.
		{Key: "table1", Run: func(context.Context) (string, any, error) {
			rows := Table1()
			return RenderTable1(rows), rows, nil
		}},
		figure(l, "fig2", func(ctx context.Context) ([]Fig2Row, error) { return l.Figure2Ctx(ctx, l.SatCounts()) }, RenderFigure2),
		figure(l, "fig3", func(ctx context.Context) ([]Fig3Row, error) { return l.Figure3Ctx(ctx, l.SatCounts()) }, RenderFigure3),
		figure(l, "fig4", l.Figure4Ctx, RenderFigure4),
		figure(l, "fig5", func(ctx context.Context) ([]Fig5Row, error) { return l.Figure5Ctx(ctx, l.SatCounts()) }, RenderFigure5),
		figure(l, "fig8", l.Figure8Ctx, func(rows []Fig8Row) string {
			lo, hi := Headline(rows)
			return RenderFigure8(rows) +
				fmt.Sprintf("headline: Kodan improves DVD %.0f%%..%.0f%% over the bent pipe (paper: 89-97%%)\n", lo*100, hi*100)
		}),
		figure(l, "fig8q", l.Figure8QuantizedCtx, RenderFigure8Quantized),
		figure(l, "fig9", l.Figure9Ctx, RenderFigure9),
		figure(l, "fig10", l.Figure10Ctx, RenderFigure10),
		figure(l, "fig11", l.Figure11Ctx, RenderFigure11),
		figure(l, "fig12", l.Figure12Ctx, RenderFigure12),
		figure(l, "fig13", l.Figure13Ctx, RenderFigure13),
		figure(l, "fig14", l.Figure14Ctx, RenderFigure14),
		figure(l, "fig15", l.Figure15Ctx, RenderFigure15),
		figure(l, "ablation-k", func(ctx context.Context) ([]AblationKRow, error) {
			return l.AblationContextCountCtx(ctx, l.ContextCounts())
		}, RenderAblationContextCount),
		figure(l, "ablation-source", l.AblationContextSourceCtx, RenderAblationContextSource),
		figure(l, "resilience", l.ResilienceSweepCtx, RenderResilience),
		figure(l, "hybridplan", l.HybridPlanSweepCtx, RenderHybridPlan),
	}
}
