package main

import (
	"context"
	"fmt"
	"time"

	"kodan"
	"kodan/internal/cluster"
	"kodan/internal/ctxengine"
	"kodan/internal/server"
)

// stubTransformConfig is a transformation sized for sub-second builds:
// one tiling, few frames, a fixed k=3 context sweep (mirrors the server
// package's unit-test sizing).
func stubTransformConfig(seed uint64) kodan.TransformConfig {
	cfg := kodan.DefaultTransformConfig(seed)
	cfg.Frames = 24
	cfg.TileRes = 8
	cfg.Tilings = []kodan.Tiling{{PerSide: 3}}
	cfg.PixelsPerFrame = 90
	cfg.EvalPixelsPerFrame = 90
	cfg.Context.Ks = []int{3}
	cfg.Context.Metrics = []cluster.Metric{cluster.Euclidean}
	cfg.Context.Transforms = []ctxengine.Transform{ctxengine.Standardized}
	cfg.Context.EngineTrain.Epochs = 8
	return cfg
}

// stubConfig assembles a server.Config over a stub pipeline: the float
// applications in apps, prebuilt from one tiny real workspace, each
// transform costing a synthetic work sleep. Load runs exercise the real
// serving plane (admission, cache, pool) with controllable compute cost
// and real, distinct response bodies per application. The stream asks for
// nothing else, so any other application or a quantized variant is an
// error. Callers layer serving knobs (cache bound, admission) on the
// result.
func stubConfig(work time.Duration, apps []int) (server.Config, error) {
	sys, err := kodan.NewSystemCtx(context.Background(), stubTransformConfig(7))
	if err != nil {
		return server.Config{}, fmt.Errorf("build stub workspace: %w", err)
	}
	prebuilt := make(map[int]*kodan.Application, len(apps))
	for _, idx := range apps {
		app, err := sys.TransformVariantCtx(context.Background(), idx, false)
		if err != nil {
			return server.Config{}, fmt.Errorf("prebuild app %d: %w", idx, err)
		}
		prebuilt[idx] = app
	}

	newSystem := func(ctx context.Context, _ kodan.TransformConfig) (*kodan.System, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return sys, nil
	}
	transform := func(ctx context.Context, _ *kodan.System, idx int, quantized bool) (*kodan.Application, error) {
		t := time.NewTimer(work)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		app, ok := prebuilt[idx]
		if !ok || quantized {
			return nil, fmt.Errorf("stub serves only the prebuilt float applications %v", apps)
		}
		return app, nil
	}
	return server.Config{
		Seed:            7,
		Timeout:         60 * time.Second,
		TransformConfig: stubTransformConfig,
		NewSystem:       newSystem,
		Transform:       transform,
	}, nil
}
