package policy

import (
	"math"
	"testing"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/nn"
	"kodan/internal/tiling"
	"kodan/internal/value"
	"kodan/internal/xrand"
)

// randomProfile builds a profile with k contexts, mixing healthy confusions
// with zero-total ones (a context no validation tile ever landed in).
func randomProfile(k int, rng *xrand.Rand) TilingProfile {
	tp := TilingProfile{Tiling: tiling.Tiling{PerSide: 2 + rng.Intn(10)}}
	for c := 0; c < k; c++ {
		cp := ContextProfile{
			TileFrac:      rng.Float64(),
			HighValueFrac: rng.Float64(),
		}
		fill := func() nn.Confusion {
			if rng.Intn(5) == 0 {
				return nn.Confusion{}
			}
			return nn.Confusion{
				TP: rng.Intn(50), FP: rng.Intn(50),
				TN: rng.Intn(50), FN: rng.Intn(50),
			}
		}
		cp.Generic, cp.Special, cp.Merged = fill(), fill(), fill()
		tp.Contexts = append(tp.Contexts, cp)
	}
	return tp
}

// refFrameTime and refEvaluateAtTime are the chunk-slice form of the
// accounting, kept verbatim from before Evaluate, EvaluateAtTime and
// FrameTime became calls into the evaluator: each action appends its
// chunk, and value.Drain downlinks the slice. They are the oracle the
// evaluator must match bit for bit.
func refFrameTime(s Selection, tp TilingProfile, env Env) time.Duration {
	tiles := float64(s.Tiling.Tiles())
	var ms float64
	if env.UseEngine {
		ms += tiles * env.Target.ContextEngineMsPerTile()
	}
	for c, a := range s.Actions {
		if a == Specialized || a == Merged || a == Generic {
			ms += tiles * tp.Contexts[c].TileFrac * env.App.PerTileMs[env.Target]
		}
	}
	return time.Duration(ms * float64(time.Millisecond))
}

func refEvaluateAtTime(s Selection, tp TilingProfile, env Env, ft time.Duration) Estimate {
	if len(s.Actions) != len(tp.Contexts) {
		panic("policy: action/context count mismatch")
	}
	p := 1.0
	if ft > env.Deadline && ft > 0 {
		p = float64(env.Deadline) / float64(ft)
	}

	// Build the per-frame chunk mix from processed frames.
	var chunks []value.Chunk
	for c, a := range s.Actions {
		cp := tp.Contexts[c]
		switch a {
		case Discard:
		case Deferred:
			// Deferred tiles leave the frame's immediate downlink budget
			// untouched: their bits ride later contact windows and are
			// accounted by the planner (internal/planner) and the sim's
			// store-and-forward drain, not by the in-frame ledger.
		case Downlink:
			chunks = append(chunks, value.Chunk{
				Bits:      p * cp.TileFrac,
				ValueBits: p * cp.TileFrac * cp.HighValueFrac,
			})
		case Specialized, Merged, Generic:
			conf := cp.Special
			switch a {
			case Merged:
				conf = cp.Merged
			case Generic:
				conf = cp.Generic
			}
			total := float64(conf.Total())
			if total == 0 {
				continue
			}
			kept := conf.PositiveRate()
			tp2 := float64(conf.TP) / total
			chunks = append(chunks, value.Chunk{
				Bits:      p * cp.TileFrac * kept,
				ValueBits: p * cp.TileFrac * tp2,
			})
		}
	}
	// Unprocessed frames are raw; with FillIdle they pad the queue.
	prevalence := tp.Prevalence()
	if env.FillIdle && p < 1 {
		chunks = append(chunks, value.Chunk{
			Bits:      1 - p,
			ValueBits: (1 - p) * prevalence,
		})
	}

	bits, val := value.Drain(chunks, env.CapacityFrac)
	led := value.Ledger{
		CapacityBits:          env.CapacityFrac,
		DownlinkedBits:        bits,
		HighValueBits:         val,
		ObservedBits:          1,
		ObservedHighValueBits: prevalence,
	}
	return Estimate{FrameTime: ft, ProcessedFrac: p, Ledger: led, DVD: led.DVD()}
}

// TestEvaluatorMatchesEvaluate pins the evaluator — and so Evaluate,
// EvaluateAtTime and FrameTime, which call it — to the chunk-slice
// reference bit for bit across random profiles, environments, action
// vectors and frame times. The committed figure goldens depend on this
// equivalence: if it ever breaks, the fix is in the evaluator, not in
// regenerating goldens.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	rng := xrand.New(7)
	actions := []Action{Discard, Downlink, Specialized, Merged, Generic, Deferred}
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(8)
		tp := randomProfile(k, rng)
		env := Env{
			App:          app.App(1 + rng.Intn(7)),
			Target:       hw.Targets()[rng.Intn(3)],
			Deadline:     time.Duration(rng.Intn(10_000_000_000)),
			CapacityFrac: rng.Float64() * 1.5,
			FillIdle:     rng.Intn(2) == 0,
			UseEngine:    rng.Intn(2) == 0,
		}
		if rng.Intn(8) == 0 {
			env.CapacityFrac = 0
		}
		ev := newEvaluator(tp, env)
		sel := Selection{Tiling: tp.Tiling, Actions: make([]Action, k)}
		for probe := 0; probe < 40; probe++ {
			for i := range sel.Actions {
				sel.Actions[i] = actions[rng.Intn(len(actions))]
			}
			ft := refFrameTime(sel, tp, env)
			if got := FrameTime(sel, tp, env); got != ft {
				t.Fatalf("trial %d probe %d: FrameTime = %v, reference %v", trial, probe, got, ft)
			}
			want := refEvaluateAtTime(sel, tp, env, ft)
			for name, got := range map[string]Estimate{
				"Evaluate":       Evaluate(sel, tp, env),
				"evaluator":      ev.evaluate(sel.Actions),
				"EvaluateAtTime": EvaluateAtTime(sel, tp, env, ft),
			} {
				if !estimatesIdentical(want, got) {
					t.Fatalf("trial %d probe %d: %s diverged\nactions %v env %+v\nwant %+v\ngot  %+v",
						trial, probe, name, sel.Actions, env, want, got)
				}
			}
			// The Figure 10 sweep overrides the frame time, including zero.
			at := time.Duration(rng.Intn(20_000_000_000))
			if probe%8 == 0 {
				at = 0
			}
			if want, got := refEvaluateAtTime(sel, tp, env, at), EvaluateAtTime(sel, tp, env, at); !estimatesIdentical(want, got) {
				t.Fatalf("trial %d probe %d: EvaluateAtTime(%v) diverged\nwant %+v\ngot  %+v",
					trial, probe, at, want, got)
			}
		}
	}
}

// estimatesIdentical compares every field by exact float bits.
func estimatesIdentical(a, b Estimate) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.FrameTime == b.FrameTime &&
		same(a.ProcessedFrac, b.ProcessedFrac) &&
		same(a.DVD, b.DVD) &&
		same(a.Ledger.CapacityBits, b.Ledger.CapacityBits) &&
		same(a.Ledger.DownlinkedBits, b.Ledger.DownlinkedBits) &&
		same(a.Ledger.HighValueBits, b.Ledger.HighValueBits) &&
		same(a.Ledger.ObservedBits, b.Ledger.ObservedBits) &&
		same(a.Ledger.ObservedHighValueBits, b.Ledger.ObservedHighValueBits)
}

// TestEvaluatorAllocFree asserts an optimizer probe allocates nothing, so
// the exhaustive sweep's cost stays linear in probes, not in garbage.
func TestEvaluatorAllocFree(t *testing.T) {
	rng := xrand.New(11)
	tp := randomProfile(6, rng)
	env := Env{
		App: app.App(4), Target: hw.Orin15W,
		Deadline: time.Second, CapacityFrac: 0.2, FillIdle: true, UseEngine: true,
	}
	ev := newEvaluator(tp, env)
	sel := make([]Action, 6)
	for i := range sel {
		sel[i] = Specialized
	}
	avg := testing.AllocsPerRun(100, func() {
		_ = ev.evaluate(sel)
	})
	if avg != 0 {
		t.Fatalf("evaluator probe allocates %.1f objects per run, want 0", avg)
	}
}
