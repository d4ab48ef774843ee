package main

import (
	"context"
	"time"

	"kodan"
)

// epoch is the reference mission start every workload simulates from.
var epoch = time.Date(2023, 3, 25, 0, 0, 0, 0, time.UTC)

// runTransform is the transform workload: the one-time transformation job
// at the reference sizing. Each job builds the system from the seed's
// dataset (four paper tilings, 120 frames), transforms Table 1 apps 1–7
// with float inference and generates the selection logic of each app on
// each hardware target. Set-up derives the three deployments from the
// reference mission.
func runTransform(ctx context.Context, r *run) error {
	setupS, deps, err := timeSetup(5, transformSetup)
	if err != nil {
		return err
	}
	cfg := kodan.DefaultTransformConfig(r.seed)
	var sums []string
	p, err := jobs(ctx, r, func(ctx context.Context, t *tracing) error {
		sum, err := transformJob(ctx, t, cfg, deps, r.checks)
		sums = append(sums, sum)
		return err
	})
	if err != nil {
		return err
	}
	ops := 1 + len(kodan.Applications())*(1+len(deps))
	r.checks.attempted = ops * (len(p.walls) + len(p.tracedWalls))
	checkDigests(r, "transform.selection_logic_digest", sums, goldenTransform)

	if !r.traced {
		r.set("setup_s", "s", setupS)
		_, err := p.report(r)
		return err
	}
	a, err := p.report(r)
	if err != nil {
		return err
	}
	r.set("core.transform_app_s", "s", median(spanDurs(a, "kodan.TransformVariantCtx", "", "")))
	tiles := 0
	for _, tl := range cfg.Tilings {
		tiles += cfg.Frames * tl.Tiles()
	}
	r.set("dataset.tiles", "count", float64(tiles))
	return nil
}

// transformSetup derives one deployment per hardware target from the
// reference mission simulation.
func transformSetup() ([]kodan.Deployment, error) {
	m, err := kodan.LandsatMission(epoch)
	if err != nil {
		return nil, err
	}
	var deps []kodan.Deployment
	for _, tg := range kodan.Targets() {
		deps = append(deps, m.Deployment(tg))
	}
	return deps, nil
}

// transformJob runs one transformation job and returns the digest of its
// selection logics. Kodan must never do worse than the bent pipe.
func transformJob(ctx context.Context, t *tracing, cfg kodan.TransformConfig, deps []kodan.Deployment, c *checks) (string, error) {
	var sys *kodan.System
	err := t.call(ctx, "kodan.NewSystemCtx", func(ctx context.Context) error {
		var err error
		sys, err = kodan.NewSystemCtx(ctx, cfg)
		return err
	})
	if err != nil {
		return "", err
	}
	d := newDigest()
	for idx := 1; idx <= len(kodan.Applications()); idx++ {
		var app *kodan.Application
		err := t.call(ctx, "kodan.TransformVariantCtx", func(ctx context.Context) error {
			var err error
			app, err = sys.TransformVariantCtx(ctx, idx, false)
			return err
		})
		if err != nil {
			return "", err
		}
		for _, dep := range deps {
			var sel kodan.Selection
			var est kodan.Estimate
			t.call(ctx, "kodan.SelectionLogic", func(context.Context) error {
				sel, est = app.SelectionLogic(dep)
				return nil
			})
			bent := app.BentPipe(dep)
			c.expect("transform.kodan_dvd_ge_bentpipe", est.DVD >= bent.DVD,
				"app %d on %v: Kodan DVD %v < bent-pipe DVD %v", idx, dep.Target, est.DVD, bent.DVD)
			d.add("app=%d target=%d tiles=%d actions=%v dvd=%d bent=%d",
				idx, int(dep.Target), sel.Tiling.PerSide, sel.Actions, est.DVD, bent.DVD)
		}
	}
	return d.sum(), nil
}
