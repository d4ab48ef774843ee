package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"kodan/internal/core"
	"kodan/internal/hw"
	"kodan/internal/policy"
	"kodan/internal/search"
	"kodan/internal/tiling"
)

// Fig8Row is one (target, application) group of Figure 8.
type Fig8Row struct {
	Target    hw.Target
	App       int
	BentDVD   float64
	DirectDVD float64
	KodanDVD  float64
}

// Improvement returns Kodan's relative DVD improvement over the bent pipe
// — the paper's headline 89-97%.
func (r Fig8Row) Improvement() float64 {
	if r.BentDVD == 0 {
		return 0
	}
	return r.KodanDVD/r.BentDVD - 1
}

// Figure8Ctx reproduces Figure 8: data value density of the bent pipe,
// direct deployment, and Kodan for every application on every hardware
// target. The (target, app) sweep runs on the lab's worker pool.
func (l *Lab) Figure8Ctx(ctx context.Context) ([]Fig8Row, error) {
	return perTargetApp(ctx, l, func(_ context.Context, c cell) (Fig8Row, error) {
		direct, _, err := directEstimate(c.art, c.d)
		if err != nil {
			return Fig8Row{}, err
		}
		_, kodan := c.art.SelectionLogic(c.d)
		return Fig8Row{
			Target:    c.d.Target,
			App:       c.app,
			BentDVD:   c.art.BentPipe(c.d).DVD,
			DirectDVD: direct.DVD,
			KodanDVD:  kodan.DVD,
		}, nil
	})
}

// RenderFigure8 formats Figure 8's bars.
func RenderFigure8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: data value density by deployment\n")
	fmt.Fprintf(&b, "%-9s %-6s %9s %9s %9s %12s\n", "Target", "App", "BentPipe", "Direct", "Kodan", "Kodan/Bent")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-6s %9.3f %9.3f %9.3f %+11.1f%%\n",
			r.Target, appLabel(r.App), r.BentDVD, r.DirectDVD, r.KodanDVD, 100*r.Improvement())
	}
	return b.String()
}

// Fig8QRow is one (target, application) group of the quantized Figure 8
// variant: Kodan's data value density with float inference versus the
// int8 quantized hot path, plus the quantization error the swap costs.
type Fig8QRow struct {
	Target   hw.Target
	App      int
	FloatDVD float64
	QuantDVD float64
}

// QuantErr returns the signed DVD cost of quantization (negative when the
// int8 path loses value density, zero when selection is unaffected).
func (r Fig8QRow) QuantErr() float64 { return r.QuantDVD - r.FloatDVD }

// Figure8QuantizedCtx reruns Figure 8's Kodan column with all suite
// predictions routed through the int8 quantized models. The (target, app)
// sweep runs on the lab's worker pool. The float column is the same
// artifact Figure 8 uses (and is memo-shared with it), so the comparison
// isolates exactly the inference-path change.
func (l *Lab) Figure8QuantizedCtx(ctx context.Context) ([]Fig8QRow, error) {
	return perTargetApp(ctx, l, func(ctx context.Context, c cell) (Fig8QRow, error) {
		artQ, err := l.AppVariantCtx(ctx, c.app, true)
		if err != nil {
			return Fig8QRow{}, err
		}
		_, float := c.art.SelectionLogic(c.d)
		_, quant := artQ.SelectionLogic(c.d)
		return Fig8QRow{
			Target:   c.d.Target,
			App:      c.app,
			FloatDVD: float.DVD,
			QuantDVD: quant.DVD,
		}, nil
	})
}

// RenderFigure8Quantized formats the float-vs-int8 comparison.
func RenderFigure8Quantized(rows []Fig8QRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 (quantized): Kodan data value density, float vs int8 inference\n")
	fmt.Fprintf(&b, "%-9s %-6s %9s %9s %10s\n", "Target", "App", "Float", "Int8", "QuantErr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-6s %9.3f %9.3f %+10.3f\n",
			r.Target, appLabel(r.App), r.FloatDVD, r.QuantDVD, r.QuantErr())
	}
	return b.String()
}

// Fig9Row is one (target, application) group of Figure 9.
type Fig9Row struct {
	Target     hw.Target
	App        int
	DirectTime time.Duration
	KodanTime  time.Duration
	Deadline   time.Duration
}

// Figure9Ctx reproduces Figure 9: time per frame under direct deployment
// versus Kodan, against the frame deadline. The (target, app) sweep runs
// on the lab's worker pool.
func (l *Lab) Figure9Ctx(ctx context.Context) ([]Fig9Row, error) {
	return perTargetApp(ctx, l, func(_ context.Context, c cell) (Fig9Row, error) {
		direct, _, err := directEstimate(c.art, c.d)
		if err != nil {
			return Fig9Row{}, err
		}
		_, kodan := c.art.SelectionLogic(c.d)
		return Fig9Row{
			Target:     c.d.Target,
			App:        c.app,
			DirectTime: direct.FrameTime,
			KodanTime:  kodan.FrameTime,
			Deadline:   c.d.Deadline,
		}, nil
	})
}

// RenderFigure9 formats Figure 9's bars.
func RenderFigure9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: time per frame (deadline %.1f s)\n", rows[0].Deadline.Seconds())
	fmt.Fprintf(&b, "%-9s %-6s %10s %10s %6s\n", "Target", "App", "Direct(s)", "Kodan(s)", "Meets")
	for _, r := range rows {
		meets := "no"
		if r.KodanTime <= r.Deadline {
			meets = "yes"
		}
		fmt.Fprintf(&b, "%-9s %-6s %10.1f %10.1f %6s\n",
			r.Target, appLabel(r.App), r.DirectTime.Seconds(), r.KodanTime.Seconds(), meets)
	}
	return b.String()
}

// Fig10Point is one point or curve sample of Figure 10.
type Fig10Point struct {
	// Label identifies the series ("curve", "App 4 Direct (Orin 15W)", ...).
	Label string
	// ExecSeconds is the application execution time per frame.
	ExecSeconds float64
	// NormImprovement is the DVD improvement over the bent pipe,
	// normalized to the per-app maximum.
	NormImprovement float64
}

// Figure10Ctx reproduces Figure 10: DVD improvement (normalized to the
// maximum) versus application execution time per frame. The curve sweeps
// execution time as a free parameter; the points are the measured
// direct-deploy and Kodan deployments of Apps 1, 4, and 7. The curve sweep
// and the measured deployment points run on the lab's worker pool.
func (l *Lab) Figure10Ctx(ctx context.Context) ([]Fig10Point, error) {
	m, err := l.MissionCtx(ctx)
	if err != nil {
		return nil, err
	}
	art, err := l.AppCtx(ctx, 4)
	if err != nil {
		return nil, err
	}
	d := m.Deployment(hw.Orin15W)
	env := d.Env(art.Arch)
	env.UseEngine = false
	tl := accuracyTiling(art)
	prof, err := art.Profile(tl)
	if err != nil {
		return nil, err
	}
	sel := policy.DirectSelection(prof)
	bent := art.BentPipe(d).DVD

	// The normalization ceiling: DVD with unlimited compute.
	maxDVD := policy.EvaluateAtTime(sel, prof, env, 0).DVD
	norm := func(dvd float64) float64 {
		if maxDVD <= bent {
			return 0
		}
		v := (dvd - bent) / (maxDVD - bent)
		if v < 0 {
			v = 0
		}
		return v
	}

	// The free-parameter curve: one policy evaluation per sampled
	// execution time.
	var curve []float64
	for s := 0.0; s <= 320; s += 10 {
		curve = append(curve, s)
	}

	// Measured deployment points.
	type measured struct {
		app    int
		target hw.Target
		kodan  bool
	}
	cases := []measured{
		{1, hw.Orin15W, false}, {1, hw.Orin15W, true},
		{4, hw.Orin15W, false}, {4, hw.Orin15W, true},
		{7, hw.Orin15W, false}, {7, hw.Orin15W, true},
		{1, hw.I7_7800X, false}, {1, hw.GTX1070Ti, false},
	}

	return sweep(ctx, l, len(curve)+len(cases), func(ctx context.Context, k int) (Fig10Point, error) {
		if k < len(curve) {
			s := curve[k]
			est := policy.EvaluateAtTime(sel, prof, env, time.Duration(s*float64(time.Second)))
			return Fig10Point{Label: "curve", ExecSeconds: s, NormImprovement: norm(est.DVD)}, nil
		}
		c := cases[k-len(curve)]
		a, err := l.AppCtx(ctx, c.app)
		if err != nil {
			return Fig10Point{}, err
		}
		dep := m.Deployment(c.target)
		var est policy.Estimate
		kind := "Direct Deploy"
		if c.kodan {
			_, est = a.SelectionLogic(dep)
			kind = "Kodan"
		} else {
			est, _, err = directEstimate(a, dep)
			if err != nil {
				return Fig10Point{}, err
			}
		}
		return Fig10Point{
			Label:           fmt.Sprintf("%s %s (%s)", appLabel(c.app), kind, c.target),
			ExecSeconds:     est.FrameTime.Seconds(),
			NormImprovement: norm(est.DVD),
		}, nil
	})
}

// RenderFigure10 formats Figure 10's series.
func RenderFigure10(pts []Fig10Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: normalized DVD improvement vs frame execution time\n")
	fmt.Fprintf(&b, "%-34s %10s %10s\n", "Series", "Exec(s)", "NormImpr")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-34s %10.1f %10.3f\n", p.Label, p.ExecSeconds, p.NormImprovement)
	}
	return b.String()
}

// Fig11Row is one application of Figure 11.
type Fig11Row struct {
	App           int
	DirectSats    int
	MaxPrecSats   int
	KodanSats     int
	MaxPrecFactor float64
	KodanFactor   float64
}

// Figure11Ctx reproduces Figure 11: the reduction in satellites required
// for full ground-track coverage on the Orin, relative to direct
// deployment with prior work's satellite-parallel pipelining. Kodan
// reaches up to ~12x for the heaviest application. The per-app sweep runs
// on the lab's worker pool.
func (l *Lab) Figure11Ctx(ctx context.Context) ([]Fig11Row, error) {
	m, err := l.MissionCtx(ctx)
	if err != nil {
		return nil, err
	}
	d := m.Deployment(hw.Orin15W)
	return perApp(ctx, l, func(_ context.Context, i int, art *core.Artifacts) (Fig11Row, error) {
		direct, _, err := directEstimate(art, d)
		if err != nil {
			return Fig11Row{}, err
		}
		// Max-precision tiling, still no elision (prior work + best tiling).
		prof, err := art.Profile(precisionTiling(art))
		if err != nil {
			return Fig11Row{}, err
		}
		env := d.Env(art.Arch)
		env.UseEngine = false
		prec := policy.Evaluate(policy.DirectSelection(prof), prof, env)
		_, kodan := art.SelectionLogic(d)

		ds := policy.SatellitesForCoverage(direct.FrameTime, m.FrameDeadline)
		ps := policy.SatellitesForCoverage(prec.FrameTime, m.FrameDeadline)
		ks := policy.SatellitesForCoverage(kodan.FrameTime, m.FrameDeadline)
		return Fig11Row{
			App: i, DirectSats: ds, MaxPrecSats: ps, KodanSats: ks,
			MaxPrecFactor: float64(ds) / float64(ps),
			KodanFactor:   float64(ds) / float64(ks),
		}, nil
	})
}

// RenderFigure11 formats Figure 11's bars.
func RenderFigure11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: satellite-count reduction for full coverage (Orin 15W)\n")
	fmt.Fprintf(&b, "%-6s %10s %12s %10s %12s %10s\n", "App", "DirectSats", "MaxPrecSats", "KodanSats", "MaxPrec(x)", "Kodan(x)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10d %12d %10d %12.1f %10.1f\n",
			appLabel(r.App), r.DirectSats, r.MaxPrecSats, r.KodanSats, r.MaxPrecFactor, r.KodanFactor)
	}
	return b.String()
}

// Fig12Row is one application of Figure 12.
type Fig12Row struct {
	App         int
	AccGeneric  float64
	AccContexts float64
	PrecGeneric float64
	PrecContext float64
}

// Figure12Ctx reproduces Figure 12: geospatial contexts improve accuracy
// (left) and precision (right) for every application. The per-app sweep
// runs on the lab's worker pool.
func (l *Lab) Figure12Ctx(ctx context.Context) ([]Fig12Row, error) {
	tl := l.coarsestTiling()
	return perApp(ctx, l, func(_ context.Context, i int, art *core.Artifacts) (Fig12Row, error) {
		suite, ok := art.Suites[tl.PerSide]
		if !ok {
			return Fig12Row{}, fmt.Errorf("experiments: no suite at %v", tl)
		}
		q := suite.Quality
		return Fig12Row{
			App:         i,
			AccGeneric:  q.GenericAll.Accuracy(),
			AccContexts: q.SpecialAll.Accuracy(),
			PrecGeneric: q.GenericAll.Precision(),
			PrecContext: q.SpecialAll.Precision(),
		}, nil
	})
}

// coarsestTiling returns the lab's coarsest candidate tiling (the one the
// contexts were generated on).
func (l *Lab) coarsestTiling() tiling.Tiling {
	tls := l.Tilings()
	coarsest := tls[0]
	for _, tl := range tls[1:] {
		if tl.PerSide < coarsest.PerSide {
			coarsest = tl
		}
	}
	return coarsest
}

// RenderFigure12 formats Figure 12's bars.
func RenderFigure12(rows []Fig12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: contexts improve accuracy and precision\n")
	fmt.Fprintf(&b, "%-6s %8s %8s %9s %9s %9s\n", "App", "AccGen", "AccCtx", "PrecGen", "PrecCtx", "PrecGain")
	for _, r := range rows {
		gain := 0.0
		if r.PrecGeneric > 0 {
			gain = r.PrecContext/r.PrecGeneric - 1
		}
		fmt.Fprintf(&b, "%-6s %8.3f %8.3f %9.3f %9.3f %+8.1f%%\n",
			appLabel(r.App), r.AccGeneric, r.AccContexts, r.PrecGeneric, r.PrecContext, 100*gain)
	}
	return b.String()
}

// Fig13Row is one (application, tiling) pair of Figure 13.
type Fig13Row struct {
	App       int
	Tiles     int
	Accuracy  float64
	Precision float64
}

// Figure13Ctx reproduces Figure 13: the effect of tiling on accuracy and
// precision. Each application has empirically optimal tilings, and the
// optima differ between accuracy and precision and across architectures.
// The per-app sweep runs on the lab's worker pool. Each app contributes
// one row per tiling, so the per-app row groups are flattened in app order
// after the sweep.
func (l *Lab) Figure13Ctx(ctx context.Context) ([]Fig13Row, error) {
	groups, err := perApp(ctx, l, func(_ context.Context, i int, art *core.Artifacts) ([]Fig13Row, error) {
		var rows []Fig13Row
		for _, tl := range sortedTilings(art) {
			q := art.Suites[tl.PerSide].Quality
			rows = append(rows, Fig13Row{
				App:       i,
				Tiles:     tl.Tiles(),
				Accuracy:  q.SpecialAll.Accuracy(),
				Precision: q.SpecialAll.Precision(),
			})
		}
		return rows, nil
	})
	return slices.Concat(groups...), err
}

// RenderFigure13 formats Figure 13's bars.
func RenderFigure13(rows []Fig13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: effect of tiling on accuracy and precision\n")
	fmt.Fprintf(&b, "%-6s %12s %9s %10s\n", "App", "Tiles/Frame", "Accuracy", "Precision")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12d %9.3f %10.3f\n", appLabel(r.App), r.Tiles, r.Accuracy, r.Precision)
	}
	return b.String()
}

// Fig14Row is one (target, application, tiling) of Figure 14.
type Fig14Row struct {
	Target hw.Target
	App    int
	Tiles  int
	DVD    float64
}

// Figure14Ctx reproduces Figure 14: the effect of tiling on data value
// density per hardware target, with elision disabled (every tile through
// its specialized model). Aggressive tiling wins on constrained targets;
// precise tiling wins when compute is plentiful. The (target, app) sweep
// runs on the lab's worker pool. Each pair contributes one row per tiling
// profile, so the per-pair row groups are flattened in render order after
// the sweep.
func (l *Lab) Figure14Ctx(ctx context.Context) ([]Fig14Row, error) {
	groups, err := perTargetApp(ctx, l, func(_ context.Context, c cell) ([]Fig14Row, error) {
		env := c.d.Env(c.art.Arch)
		var rows []Fig14Row
		for _, prof := range c.art.Profiles {
			sel := policy.Selection{Tiling: prof.Tiling, Actions: make([]policy.Action, len(prof.Contexts))}
			for k := range sel.Actions {
				sel.Actions[k] = policy.Specialized
			}
			est := policy.Evaluate(sel, prof, env)
			rows = append(rows, Fig14Row{Target: c.d.Target, App: c.app, Tiles: prof.Tiling.Tiles(), DVD: est.DVD})
		}
		return rows, nil
	})
	return slices.Concat(groups...), err
}

// RenderFigure14 formats Figure 14's bars.
func RenderFigure14(rows []Fig14Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: effect of tiling on DVD (no elision)\n")
	fmt.Fprintf(&b, "%-9s %-6s %12s %8s\n", "Target", "App", "Tiles/Frame", "DVD")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-6s %12d %8.3f\n", r.Target, appLabel(r.App), r.Tiles, r.DVD)
	}
	return b.String()
}

// Fig15Row is one (target, application) of Figure 15.
type Fig15Row struct {
	Target     hw.Target
	App        int
	DirectDVD  float64
	ElisionDVD float64
}

// Figure15Ctx reproduces Figure 15: context-based elision added to the
// reference model (generic models plus downlink/discard of near-pure
// contexts) against plain direct deployment. The benefit is largest under
// the deepest computational bottleneck. The (target, app) sweep — each
// cell an exhaustive elision search — runs on the lab's worker pool.
func (l *Lab) Figure15Ctx(ctx context.Context) ([]Fig15Row, error) {
	return perTargetApp(ctx, l, func(_ context.Context, c cell) (Fig15Row, error) {
		direct, tl, err := directEstimate(c.art, c.d)
		if err != nil {
			return Fig15Row{}, err
		}
		prof, err := c.art.Profile(tl)
		if err != nil {
			return Fig15Row{}, err
		}
		est := bestElisionOverGeneric(prof, c.d.Env(c.art.Arch))
		return Fig15Row{Target: c.d.Target, App: c.app, DirectDVD: direct.DVD, ElisionDVD: est.DVD}, nil
	})
}

// bestElisionOverGeneric searches per-context {Generic, Downlink, Discard}
// — the elision technique isolated from model specialization — and returns
// the best estimate.
func bestElisionOverGeneric(prof policy.TilingProfile, env policy.Env) policy.Estimate {
	env.UseEngine = true
	k := len(prof.Contexts)
	actions := []policy.Action{policy.Generic, policy.Downlink, policy.Discard}
	sel := policy.Selection{Tiling: prof.Tiling, Actions: make([]policy.Action, k)}
	digits := make([]int, k)
	var best policy.Estimate
	combos := 1
	for i := 0; i < k; i++ {
		combos *= len(actions)
	}
	for code := 0; code < combos; code++ {
		search.Decode(code, len(actions), digits)
		for i, d := range digits {
			sel.Actions[i] = actions[d]
		}
		est := policy.Evaluate(sel, prof, env)
		if code == 0 || est.DVD > best.DVD {
			best = est
		}
	}
	return best
}

// RenderFigure15 formats Figure 15's bars.
func RenderFigure15(rows []Fig15Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: context-based elision and DVD\n")
	fmt.Fprintf(&b, "%-9s %-6s %9s %9s %12s\n", "Target", "App", "Direct", "Elision", "Improvement")
	for _, r := range rows {
		imp := 0.0
		if r.DirectDVD > 0 {
			imp = r.ElisionDVD/r.DirectDVD - 1
		}
		fmt.Fprintf(&b, "%-9s %-6s %9.3f %9.3f %+11.1f%%\n",
			r.Target, appLabel(r.App), r.DirectDVD, r.ElisionDVD, 100*imp)
	}
	return b.String()
}

// Headline summarizes the Kodan-over-bent-pipe improvement range across
// Figure 8 — the abstract's 89-97%.
func Headline(rows []Fig8Row) (lo, hi float64) {
	lo, hi = 1e9, -1e9
	for _, r := range rows {
		imp := r.Improvement()
		if imp < lo {
			lo = imp
		}
		if imp > hi {
			hi = imp
		}
	}
	return lo, hi
}
