// Package fleet models platform constellations serving multiple customer
// applications — the "constellation-as-a-service" future the paper argues
// Kodan enables (Sections 2.1.3 and 7). Prior OEC work dedicates a
// vertically-integrated constellation to one application; a platform
// instead wants every satellite to serve every customer. The package
// compares the two operating strategies analytically:
//
//   - Dedicated: satellites are partitioned among applications; each group
//     runs one application continuously (prior work's model).
//   - Shared: every satellite time-slices all applications by
//     frame-interleaving — application i processes every A-th frame, so
//     its effective frame deadline stretches by A while its observation
//     share shrinks to 1/A.
//
// Under Kodan the shared platform retains almost all of the dedicated
// strategy's value while covering every application on every ground track;
// under direct deployment, sharing multiplies the computational bottleneck
// and value collapses. The tests quantify both claims.
package fleet

import (
	"context"
	"fmt"
	"time"

	"kodan/internal/app"
	"kodan/internal/fault"
	"kodan/internal/hw"
	"kodan/internal/parallel"
	"kodan/internal/policy"
	"kodan/internal/telemetry"
)

// AppSpec is one customer application: its architecture and measured
// tiling profiles (from the one-time transformation).
type AppSpec struct {
	Arch     app.Architecture
	Profiles []policy.TilingProfile
}

// Config describes the platform.
type Config struct {
	// Sats is the constellation population.
	Sats int
	// Target is the per-satellite compute hardware.
	Target hw.Target
	// Deadline is the single-application frame deadline.
	Deadline time.Duration
	// CapacityFrac is each satellite's downlink capacity per observed
	// frame as a fraction of frame size.
	CapacityFrac float64
	// Kodan selects per-app selection logics; false runs each app's
	// reference model directly (prior work).
	Kodan bool
	// Workers bounds the parallelism of the per-application policy
	// evaluations: 0 uses GOMAXPROCS, 1 forces the sequential path.
	// Reports are identical at every worker count — each application's
	// value is independent and written back by application index.
	Workers int
}

// validate rejects unusable configurations.
func (c Config) validate(nApps int) error {
	if c.Sats <= 0 {
		return fmt.Errorf("fleet: non-positive population %d", c.Sats)
	}
	if nApps == 0 {
		return fmt.Errorf("fleet: no applications")
	}
	if c.Deadline <= 0 {
		return fmt.Errorf("fleet: non-positive deadline")
	}
	return nil
}

// AppValue is one application's outcome on the platform.
type AppValue struct {
	// App is the application index.
	App int
	// ValueRate is high-value bits downlinked per observed-frame-bit of
	// one satellite's track, summed over the satellites serving this app.
	ValueRate float64
	// Satellites is how many satellites serve the application (for the
	// shared strategy this is the whole constellation).
	Satellites int
}

// Report is a strategy evaluation.
type Report struct {
	// Strategy names the operating model.
	Strategy string
	// PerApp holds each application's outcome.
	PerApp []AppValue
	// TotalValueRate sums value over applications.
	TotalValueRate float64
	// AppsServed counts applications with nonzero value.
	AppsServed int
}

// perSatValue returns one satellite's high-value downlink rate (per
// observed-frame-bit) for an application at an effective deadline.
func perSatValue(spec AppSpec, cfg Config, deadline time.Duration) float64 {
	env := policy.Env{
		App:          spec.Arch,
		Target:       cfg.Target,
		Deadline:     deadline,
		CapacityFrac: cfg.CapacityFrac,
		FillIdle:     true,
	}
	var est policy.Estimate
	if cfg.Kodan {
		_, est = policy.Optimize(spec.Profiles, env)
	} else {
		prof := spec.Profiles[0]
		env.UseEngine = false
		est = policy.Evaluate(policy.DirectSelection(prof), prof, env)
	}
	return est.Ledger.HighValueBits
}

// DedicatedCtx evaluates the vertically-integrated strategy: satellites
// split as evenly as possible among applications (earlier applications get
// the remainder). The per-application policy evaluations run on
// cfg.Workers goroutines.
func DedicatedCtx(ctx context.Context, specs []AppSpec, cfg Config) (Report, error) {
	if err := cfg.validate(len(specs)); err != nil {
		return Report{}, err
	}
	ctx, span := telemetry.StartSpan(ctx, "fleet.dedicated")
	defer span.End()
	telemetry.ProbeFrom(ctx).Metrics.Scope("fleet").Counter("evaluations").Add(int64(len(specs)))
	base := cfg.Sats / len(specs)
	extra := cfg.Sats % len(specs)
	vals := make([]AppValue, len(specs))
	err := parallel.ForEach(ctx, parallel.Workers(cfg.Workers), len(specs), func(_ context.Context, i int) error {
		n := base
		if i < extra {
			n++
		}
		v := 0.0
		if n > 0 {
			v = float64(n) * perSatValue(specs[i], cfg, cfg.Deadline)
		}
		vals[i] = AppValue{App: specs[i].Arch.Index, ValueRate: v, Satellites: n}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	return assemble("dedicated", vals), nil
}

// SharedCtx evaluates the platform strategy: every satellite
// frame-interleaves all applications. Application i sees 1/A of the frames
// with an A-times longer effective deadline, and the per-satellite downlink
// is shared in the same proportion. The per-application policy evaluations
// run on cfg.Workers goroutines.
func SharedCtx(ctx context.Context, specs []AppSpec, cfg Config) (Report, error) {
	if err := cfg.validate(len(specs)); err != nil {
		return Report{}, err
	}
	ctx, span := telemetry.StartSpan(ctx, "fleet.shared")
	defer span.End()
	telemetry.ProbeFrom(ctx).Metrics.Scope("fleet").Counter("evaluations").Add(int64(len(specs)))
	a := len(specs)
	vals := make([]AppValue, len(specs))
	err := parallel.ForEach(ctx, parallel.Workers(cfg.Workers), len(specs), func(_ context.Context, i int) error {
		per := perSatValue(specs[i], cfg, time.Duration(a)*cfg.Deadline) / float64(a)
		vals[i] = AppValue{App: specs[i].Arch.Index, ValueRate: float64(cfg.Sats) * per, Satellites: cfg.Sats}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	return assemble("shared", vals), nil
}

// upCount returns how many of the n satellites starting at offset are not
// marked down. A nil down slice means every satellite is up.
func upCount(down []bool, offset, n int) int {
	up := 0
	for i := offset; i < offset+n; i++ {
		if i >= len(down) || !down[i] {
			up++
		}
	}
	return up
}

// DedicatedDegradedCtx evaluates the dedicated strategy with the marked
// satellites unavailable (safe-mode reset, lost, or otherwise down).
// Partitions are assigned contiguously in application order — app i owns
// the same satellite indices DedicatedCtx would give it — so an outage
// concentrated in one partition can zero out that application entirely
// while the rest of the fleet is untouched: the dedicated strategy's
// brittleness under faults. A nil down slice reproduces DedicatedCtx
// exactly.
func DedicatedDegradedCtx(ctx context.Context, specs []AppSpec, cfg Config, down []bool) (Report, error) {
	if err := cfg.validate(len(specs)); err != nil {
		return Report{}, err
	}
	ctx, span := telemetry.StartSpan(ctx, "fleet.dedicated_degraded")
	defer span.End()
	telemetry.ProbeFrom(ctx).Metrics.Scope("fleet").Counter("evaluations").Add(int64(len(specs)))
	base := cfg.Sats / len(specs)
	extra := cfg.Sats % len(specs)
	offsets := make([]int, len(specs))
	sizes := make([]int, len(specs))
	offset := 0
	for i := range specs {
		n := base
		if i < extra {
			n++
		}
		offsets[i], sizes[i] = offset, n
		offset += n
	}
	vals := make([]AppValue, len(specs))
	err := parallel.ForEach(ctx, parallel.Workers(cfg.Workers), len(specs), func(_ context.Context, i int) error {
		n := upCount(down, offsets[i], sizes[i])
		v := 0.0
		if n > 0 {
			v = float64(n) * perSatValue(specs[i], cfg, cfg.Deadline)
		}
		vals[i] = AppValue{App: specs[i].Arch.Index, ValueRate: v, Satellites: n}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	return assemble("dedicated-degraded", vals), nil
}

// SharedDegradedCtx evaluates the shared strategy with the marked
// satellites unavailable. Every surviving satellite still serves every
// application, so value degrades linearly with the up-count and no
// application is lost while any satellite survives — the platform
// strategy's graceful degradation. A nil down slice reproduces SharedCtx
// exactly.
func SharedDegradedCtx(ctx context.Context, specs []AppSpec, cfg Config, down []bool) (Report, error) {
	if err := cfg.validate(len(specs)); err != nil {
		return Report{}, err
	}
	ctx, span := telemetry.StartSpan(ctx, "fleet.shared_degraded")
	defer span.End()
	telemetry.ProbeFrom(ctx).Metrics.Scope("fleet").Counter("evaluations").Add(int64(len(specs)))
	up := upCount(down, 0, cfg.Sats)
	a := len(specs)
	vals := make([]AppValue, len(specs))
	err := parallel.ForEach(ctx, parallel.Workers(cfg.Workers), len(specs), func(_ context.Context, i int) error {
		per := 0.0
		if up > 0 {
			per = perSatValue(specs[i], cfg, time.Duration(a)*cfg.Deadline) / float64(a)
		}
		vals[i] = AppValue{App: specs[i].Arch.Index, ValueRate: float64(up) * per, Satellites: up}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	return assemble("shared-degraded", vals), nil
}

// DownSats marks the satellites a fault schedule takes below the
// availability floor over [start, start+span): satellite i is down when
// its safe-mode-reset fraction of the span is at least minDownFrac. A nil
// injector marks nothing.
func DownSats(inj *fault.Injector, sats int, start time.Time, span time.Duration, minDownFrac float64) []bool {
	down := make([]bool, sats)
	if inj == nil {
		return down
	}
	for i := range down {
		down[i] = inj.DownFrac(i, start, span) >= minDownFrac
	}
	return down
}

// assemble folds per-app values into a report, in application order.
func assemble(strategy string, vals []AppValue) Report {
	rep := Report{Strategy: strategy, PerApp: vals}
	for _, v := range vals {
		rep.TotalValueRate += v.ValueRate
		if v.ValueRate > 0 {
			rep.AppsServed++
		}
	}
	return rep
}

// Efficiency returns the shared strategy's total value as a fraction of the
// dedicated strategy's — how much platform flexibility costs.
func Efficiency(shared, dedicated Report) float64 {
	if dedicated.TotalValueRate == 0 {
		return 0
	}
	return shared.TotalValueRate / dedicated.TotalValueRate
}
