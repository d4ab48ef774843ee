package planner

import (
	"fmt"
	"math"
	"time"

	"kodan/internal/policy"
	"kodan/internal/power"
)

// CheckPlan re-derives a plan's accounting from the profile and
// environment it was made for, without the search's option tables, and
// returns an error naming the first breach: a placement or action that
// does not match the base selection, an Eval field that disagrees with the
// re-derivation, or a violated hard constraint (the frame deadline when
// on-board models run, the shared link pool, the deferral
// buffer). Every plan DecideCtx returns passes it, including
// the all-Drop fallback, which no constraint can reject.
func CheckPlan(plan Plan, prof policy.TilingProfile, env Env) error {
	k := len(prof.Contexts)
	if len(plan.Dispositions) != k || len(plan.Actions) != k || len(plan.Base.Actions) != k {
		return fmt.Errorf("planner: plan shape %d/%d/%d for %d contexts",
			len(plan.Dispositions), len(plan.Actions), len(plan.Base.Actions), k)
	}
	if plan.Tiling != prof.Tiling {
		return fmt.Errorf("planner: plan tiling %v, profile tiling %v", plan.Tiling, prof.Tiling)
	}
	tiles := float64(prof.Tiling.Tiles())
	perTileMs := env.Policy.App.PerTileMs[env.Policy.Target]
	ms := tiles * env.Policy.Target.ContextEngineMsPerTile()
	models := false
	var want Eval
	var finished, raw float64
	for c, d := range plan.Dispositions {
		if d < 0 || d >= numDispositions {
			return fmt.Errorf("planner: context %d has disposition %v", c, d)
		}
		if a := d.action(plan.Base.Actions[c]); plan.Actions[c] != a {
			return fmt.Errorf("planner: context %d placed %v maps to %v, plan says %v", c, d, a, plan.Actions[c])
		}
		cp := prof.Contexts[c]
		f, h := cp.TileFrac, cp.HighValueFrac
		switch d {
		case Onboard:
			want.OnboardFrac += f
			switch a := plan.Base.Actions[c]; a {
			case policy.Downlink:
				want.NowBits += f
				raw += f * h
			case policy.Specialized, policy.Merged, policy.Generic:
				conf := cp.Special
				switch a {
				case policy.Merged:
					conf = cp.Merged
				case policy.Generic:
					conf = cp.Generic
				}
				if total := float64(conf.Total()); total > 0 {
					modelMs := tiles * f * perTileMs
					ms += modelMs
					models = models || modelMs > 0
					want.NowBits += f * float64(conf.TP+conf.FP) / total
					finished += f * float64(conf.TP) / total
				}
			}
		case DownlinkNow:
			want.DownlinkFrac += f
			want.NowBits += f
			raw += f * h
		case Defer:
			want.DeferFrac += f
			want.DeferBits += f
			want.GroundFrames += f
			finished += f * h
		case Drop:
			want.DropFrac += f
		}
	}
	want.FrameTime = time.Duration(ms * float64(time.Millisecond))
	energy, err := power.EnergyPerFrame(env.Policy.Target, want.FrameTime, env.Policy.Deadline)
	if err != nil {
		return fmt.Errorf("planner: pricing energy: %w", err)
	}
	want.EnergyPerFrameJ = energy
	want.ValueFrames = finished + raw
	want.Utility = env.Costs.utility(finished, raw, want.NowBits, want.DeferBits, want.GroundFrames, energy)
	if link := want.NowBits + want.DeferBits; link > 0 {
		want.DVD = want.ValueFrames / link
	}

	got := plan.Eval
	if deadline := env.Policy.Deadline; models && got.FrameTime > deadline {
		return fmt.Errorf("planner: frame time %v misses the %v deadline", got.FrameTime, deadline)
	}
	if link := got.NowBits + got.DeferBits; link > env.Policy.CapacityFrac+feasEps {
		return fmt.Errorf("planner: %v frame-fractions planned into a %v link pool", link, env.Policy.CapacityFrac)
	}
	if backlog := got.DeferBits * env.contactGap(); backlog > env.BufferFrames+feasEps {
		return fmt.Errorf("planner: %v frames of deferred backlog in a %v-frame buffer", backlog, env.BufferFrames)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Utility", got.Utility, want.Utility},
		{"ValueFrames", got.ValueFrames, want.ValueFrames},
		{"NowBits", got.NowBits, want.NowBits},
		{"DeferBits", got.DeferBits, want.DeferBits},
		{"OnboardFrac", got.OnboardFrac, want.OnboardFrac},
		{"DownlinkFrac", got.DownlinkFrac, want.DownlinkFrac},
		{"DeferFrac", got.DeferFrac, want.DeferFrac},
		{"DropFrac", got.DropFrac, want.DropFrac},
		{"FrameTime", float64(got.FrameTime), float64(want.FrameTime)},
		{"EnergyPerFrameJ", got.EnergyPerFrameJ, want.EnergyPerFrameJ},
		{"GroundFrames", got.GroundFrames, want.GroundFrames},
		{"DVD", got.DVD, want.DVD},
	} {
		if !(math.Abs(f.got-f.want) <= 1e-9*math.Max(1, math.Abs(f.want))) {
			return fmt.Errorf("planner: Eval.%s = %v, re-derived %v", f.name, f.got, f.want)
		}
	}

	return nil
}
