// Package planner is Kodan's hybrid space-ground execution planner. The
// selection logic (internal/policy) decides *how* to transform data on
// board; this package decides *where* each context's work should run. Per
// context it chooses among three placements —
//
//   - Onboard: run the selection logic's on-board action (specialize,
//     merge, downlink, or discard) and downlink the processed output in
//     the frame's immediate link budget;
//   - DownlinkNow: transmit the tiles raw in the immediate budget, leaving
//     them unprocessed (archival value, discounted);
//   - Defer: buffer the tiles raw on board, downlink them against later
//     contact windows, and process them on the ground (full value at a
//     configurable ground-compute cost and a latency measured by
//     sim.DrainDeferredCtx);
//
// plus Drop — by maximizing delivered value minus the combined cost of
// on-board compute energy (internal/power), link occupancy, and ground
// compute, subject to the frame deadline, the shared downlink capacity
// (internal/link + internal/station via the simulator), and the on-board
// buffer. The search is exhaustive over per-context placements (with a
// deterministic hill-climb fallback past the same bound the selection
// logic uses), so two structural monotonicity properties hold: more link
// capacity never lowers the chosen plan's utility (the feasible set only
// grows), and a higher ground-compute cost never increases the deferred
// fraction (ground cost enters the objective only through deferred work,
// and ties break toward less deferral).
//
// Fault awareness composes through the inputs: DeriveLink reads capacity
// and contact cadence from any sim.Result, so planning against a
// fault-injected run (stations out, links fading) re-plans automatically —
// shrinking capacity and stretching contact gaps until deferral, then raw
// downlink, stop being affordable.
package planner

import (
	"context"
	"fmt"
	"math"
	"time"

	"kodan/internal/policy"
	"kodan/internal/power"
	"kodan/internal/sim"
	"kodan/internal/telemetry/events"
	"kodan/internal/tiling"
)

// Disposition is a per-context placement decision.
type Disposition int

// Placements, in enumeration order (ties prefer earlier).
const (
	// Onboard executes the selection logic's on-board action.
	Onboard Disposition = iota
	// DownlinkNow transmits raw tiles in the frame's immediate budget.
	DownlinkNow
	// Defer buffers raw tiles for later contact windows and ground compute.
	Defer
	// Drop discards the context entirely.
	Drop
	numDispositions
)

// String implements fmt.Stringer.
func (d Disposition) String() string {
	switch d {
	case Onboard:
		return "onboard"
	case DownlinkNow:
		return "downlink-now"
	case Defer:
		return "defer"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("disposition(%d)", int(d))
	}
}

// action maps a placement onto the policy action set.
func (d Disposition) action(base policy.Action) policy.Action {
	switch d {
	case Onboard:
		return base
	case DownlinkNow:
		return policy.Downlink
	case Defer:
		return policy.Deferred
	default:
		return policy.Discard
	}
}

// Costs prices the placement options in one currency. Frame-fraction
// units: a "frame" is one captured frame's bits.
type Costs struct {
	// ValuePerFrame is the reward per high-value frame-fraction delivered
	// as finished (processed) product.
	ValuePerFrame float64
	// RawDiscount multiplies the value of raw, never-processed delivery
	// (DownlinkNow): the user still has to find the valuable pixels.
	// In [0, 1]; 1 treats raw archives as finished product.
	RawDiscount float64
	// LinkPerFrame is the cost per frame-fraction of downlink occupancy,
	// immediate or deferred.
	LinkPerFrame float64
	// GroundPerFrame is the cost per frame-fraction processed on the
	// ground — the sweep variable of experiments.HybridPlanSweep.
	GroundPerFrame float64
	// EnergyPerKJ is the cost per kilojoule of on-board compute energy.
	EnergyPerKJ float64
}

// DefaultCosts returns the reference pricing used by the experiments and
// commands: finished value 1 per high-value frame, raw archives at 60%,
// modest link and energy prices, and a ground cost meant to be overridden
// by the sweep.
func DefaultCosts() Costs {
	return Costs{
		ValuePerFrame:  1,
		RawDiscount:    0.6,
		LinkPerFrame:   0.15,
		GroundPerFrame: 0.5,
		EnergyPerKJ:    0.2,
	}
}

// validate rejects unpriceable cost vectors.
func (c Costs) validate() error {
	if c.ValuePerFrame < 0 || c.LinkPerFrame < 0 || c.GroundPerFrame < 0 || c.EnergyPerKJ < 0 {
		return fmt.Errorf("planner: negative cost in %+v", c)
	}
	if c.RawDiscount < 0 || c.RawDiscount > 1 || math.IsNaN(c.RawDiscount) {
		return fmt.Errorf("planner: raw discount %v outside [0,1]", c.RawDiscount)
	}
	return nil
}

// Env is the planner's view of the deployment: the selection-logic
// environment (hardware, deadline, immediate capacity), the electrical
// bus, the cost vector, and the store-and-forward geometry.
type Env struct {
	// Policy is the selection-logic environment. CapacityFrac is the
	// shared per-observed-frame downlink pool that immediate and deferred
	// traffic both draw from.
	Policy policy.Env
	// Bus is the satellite electrical power system (typed-error validated
	// via internal/power).
	Bus power.Bus
	// Costs prices the placements.
	Costs Costs
	// BufferFrames is the on-board deferral buffer in frame-size units.
	BufferFrames float64
	// FramesBetweenContacts is the mean number of frames captured between
	// successive contacts; it converts a per-frame deferred fraction into
	// the peak backlog the buffer must hold. Values below 1 are treated
	// as 1 (a contact every frame).
	FramesBetweenContacts float64
}

// Validate rejects environments the planner cannot price.
func (e Env) Validate() error {
	if err := e.Bus.Validate(); err != nil {
		return err
	}
	if e.Policy.Deadline <= 0 {
		return fmt.Errorf("%w: %v", power.ErrBadDeadline, e.Policy.Deadline)
	}
	if e.Policy.CapacityFrac < 0 || math.IsNaN(e.Policy.CapacityFrac) {
		return fmt.Errorf("planner: negative capacity %v", e.Policy.CapacityFrac)
	}
	if e.BufferFrames < 0 || math.IsNaN(e.BufferFrames) {
		return fmt.Errorf("planner: negative buffer %v frames", e.BufferFrames)
	}
	return e.Costs.validate()
}

// contactGap returns the effective frames-between-contacts (at least 1).
func (e Env) contactGap() float64 {
	if e.FramesBetweenContacts < 1 {
		return 1
	}
	return e.FramesBetweenContacts
}

// Eval is the per-observed-frame accounting of a plan. Bit quantities are
// fractions of one frame's bits, as in policy.Evaluate.
type Eval struct {
	// Utility is the maximized objective: value minus link, ground, and
	// energy costs.
	Utility float64
	// ValueFrames is the delivered high-value frame-fraction (finished
	// plus raw, undiscounted).
	ValueFrames float64
	// NowBits is the frame-fraction downlinked in the immediate budget
	// (on-board output plus raw-now tiles).
	NowBits float64
	// DeferBits is the frame-fraction buffered for later windows.
	DeferBits float64
	// OnboardFrac, DownlinkFrac, DeferFrac, and DropFrac partition the
	// tile fraction by placement.
	OnboardFrac  float64
	DownlinkFrac float64
	DeferFrac    float64
	DropFrac     float64
	// FrameTime is the on-board processing time per frame (context engine
	// plus the models the Onboard placements run).
	FrameTime time.Duration
	// EnergyPerFrameJ is the on-board compute energy per frame.
	EnergyPerFrameJ float64
	// GroundFrames is the frame-fraction processed on the ground.
	GroundFrames float64
	// DVD is the delivered high-value bits per downlinked bit.
	DVD float64
}

// Plan is a hybrid execution plan for one deployment.
type Plan struct {
	// Tiling is the frame tiling the plan operates at.
	Tiling tiling.Tiling
	// Base is the selection logic whose on-board actions the Onboard
	// placements execute.
	Base policy.Selection
	// Dispositions is the per-context placement choice.
	Dispositions []Disposition
	// Actions maps the plan onto the policy action set (Onboard keeps the
	// base action, DownlinkNow becomes Downlink, Defer becomes Deferred,
	// Drop becomes Discard).
	Actions []policy.Action
	// Eval is the plan's accounting.
	Eval Eval
}

// option is one context's priced placement candidate.
type option struct {
	modelMs   float64 // on-board model milliseconds per frame
	nowBits   float64
	deferBits float64
	finished  float64 // processed high-value frame-fraction delivered
	raw       float64 // raw high-value frame-fraction delivered
	ground    float64 // frame-fraction processed on the ground
}

// contextOptions prices the placements of every context.
func contextOptions(prof policy.TilingProfile, base policy.Selection, env Env) [][]option {
	tiles := float64(prof.Tiling.Tiles())
	perTileMs := env.Policy.App.PerTileMs[env.Policy.Target]
	opts := make([][]option, len(prof.Contexts))
	for c, cp := range prof.Contexts {
		f, h := cp.TileFrac, cp.HighValueFrac
		var ob option
		switch a := base.Actions[c]; a {
		case policy.Downlink:
			ob = option{nowBits: f, raw: f * h}
		case policy.Specialized, policy.Merged, policy.Generic:
			conf := cp.Special
			switch a {
			case policy.Merged:
				conf = cp.Merged
			case policy.Generic:
				conf = cp.Generic
			}
			if total := float64(conf.Total()); total > 0 {
				ob = option{
					modelMs:  tiles * f * perTileMs,
					nowBits:  f * conf.PositiveRate(),
					finished: f * float64(conf.TP) / total,
				}
			}
		default: // Discard (and Deferred, which never appears in a base)
		}
		opts[c] = make([]option, numDispositions)
		opts[c][Onboard] = ob
		opts[c][DownlinkNow] = option{nowBits: f, raw: f * h}
		opts[c][Defer] = option{deferBits: f, finished: f * h, ground: f}
		opts[c][Drop] = option{}
	}
	return opts
}

// feasEps absorbs float noise in the constraint checks.
const feasEps = 1e-9

// evaluate prices one full assignment; ok reports feasibility. An
// assignment with no on-board models is exempt from the deadline check
// (mirroring the selection logic's always-admissible full elision), so
// the all-Drop plan is a universal fallback.
func evaluate(dispositions []Disposition, opts [][]option, prof policy.TilingProfile, env Env) (Eval, bool) {
	var ev Eval
	engineMs := float64(prof.Tiling.Tiles()) * env.Policy.Target.ContextEngineMsPerTile()
	ms := engineMs
	var finished, raw float64
	hasModels := false
	for c, d := range dispositions {
		o := opts[c][d]
		ms += o.modelMs
		if o.modelMs > 0 {
			hasModels = true
		}
		ev.NowBits += o.nowBits
		ev.DeferBits += o.deferBits
		ev.GroundFrames += o.ground
		finished += o.finished
		raw += o.raw
		f := prof.Contexts[c].TileFrac
		switch d {
		case Onboard:
			ev.OnboardFrac += f
		case DownlinkNow:
			ev.DownlinkFrac += f
		case Defer:
			ev.DeferFrac += f
		default:
			ev.DropFrac += f
		}
	}
	ev.FrameTime = time.Duration(ms * float64(time.Millisecond))

	// Constraints: frame deadline (and optional duty cap) on the on-board
	// work, the shared link pool on all downlinked bits, and the buffer on
	// the peak deferred backlog between contacts.
	deadline := env.Policy.Deadline
	if hasModels {
		if ev.FrameTime > deadline {
			return ev, false
		}
		if dutyCap := env.Policy.MaxDutyCycle; dutyCap > 0 &&
			float64(ev.FrameTime)/float64(deadline) > dutyCap+feasEps {
			return ev, false
		}
	}
	if ev.NowBits+ev.DeferBits > env.Policy.CapacityFrac+feasEps {
		return ev, false
	}
	if ev.DeferBits*env.contactGap() > env.BufferFrames+feasEps {
		return ev, false
	}

	// EnergyPerFrame clamps at the deadline, so even the engine-overrun
	// fallback prices finitely.
	energy, err := power.EnergyPerFrame(env.Policy.Target, ev.FrameTime, deadline)
	if err != nil {
		return ev, false
	}
	ev.EnergyPerFrameJ = energy

	ev.ValueFrames = finished + raw
	cost := env.Costs
	ev.Utility = cost.ValuePerFrame*(finished+cost.RawDiscount*raw) -
		cost.LinkPerFrame*(ev.NowBits+ev.DeferBits) -
		cost.GroundPerFrame*ev.GroundFrames -
		cost.EnergyPerKJ*energy/1000
	if link := ev.NowBits + ev.DeferBits; link > 0 {
		ev.DVD = ev.ValueFrames / link
	}
	return ev, true
}

// betterEval orders plan evaluations: utility first, then less deferral
// (the tie direction the ground-cost monotonicity property needs), then
// less energy, then fewer immediate bits. Remaining ties keep the earlier
// assignment in enumeration order, so the search is deterministic.
func betterEval(a, b Eval) bool {
	const eps = 1e-12
	if a.Utility > b.Utility+eps {
		return true
	}
	if a.Utility < b.Utility-eps {
		return false
	}
	if a.DeferBits < b.DeferBits-eps {
		return true
	}
	if a.DeferBits > b.DeferBits+eps {
		return false
	}
	if a.EnergyPerFrameJ < b.EnergyPerFrameJ-eps {
		return true
	}
	if a.EnergyPerFrameJ > b.EnergyPerFrameJ+eps {
		return false
	}
	return a.NowBits < b.NowBits-eps
}

// maxExhaustive bounds the exhaustive placement sweep (4^8, matching the
// selection-logic optimizer).
const maxExhaustive = 65536

// DecideCtx searches the per-context placements for one tiling profile
// and base selection. The base supplies each context's on-board action;
// the returned plan maximizes utility over all feasible placements,
// falling back to all-Drop when nothing else fits the constraints.
//
// When ctx carries a mission event journal, the chosen plan is journaled
// as one planner_disposition event per context ("C<i>-><placement>",
// Value = the context's tile fraction). Planning happens before mission
// time, so the events carry SimNs 0; journaling never influences the
// search.
func DecideCtx(ctx context.Context, prof policy.TilingProfile, base policy.Selection, env Env) (Plan, error) {
	if err := env.Validate(); err != nil {
		return Plan{}, err
	}
	if len(base.Actions) != len(prof.Contexts) {
		return Plan{}, fmt.Errorf("planner: %d base actions for %d contexts",
			len(base.Actions), len(prof.Contexts))
	}
	env.Policy.UseEngine = true
	opts := contextOptions(prof, base, env)
	k := len(prof.Contexts)

	combos := 1
	exhaustive := true
	for i := 0; i < k; i++ {
		combos *= int(numDispositions)
		if combos > maxExhaustive {
			exhaustive = false
			break
		}
	}
	var best []Disposition
	var bestEv Eval
	found := false
	if exhaustive {
		cur := make([]Disposition, k)
		for code := 0; code < combos; code++ {
			c := code
			for i := 0; i < k; i++ {
				cur[i] = Disposition(c % int(numDispositions))
				c /= int(numDispositions)
			}
			ev, ok := evaluate(cur, opts, prof, env)
			if !ok {
				continue
			}
			if !found || betterEval(ev, bestEv) {
				best = append(best[:0], cur...)
				bestEv = ev
				found = true
			}
		}
	} else {
		best, bestEv, found = hillClimb(opts, prof, env)
	}
	if !found {
		best = make([]Disposition, k)
		for i := range best {
			best[i] = Drop
		}
		bestEv, _ = evaluate(best, opts, prof, env)
	}

	actions := make([]policy.Action, k)
	for c, d := range best {
		actions[c] = d.action(base.Actions[c])
	}
	if j := events.JournalFrom(ctx); j.Active() {
		for c, d := range best {
			j.Emit(events.Event{
				Type: events.PlannerDisposition, Sat: -1,
				Detail: fmt.Sprintf("C%d->%s", c, d),
				Value:  prof.Contexts[c].TileFrac,
			})
		}
	}
	return Plan{
		Tiling:       prof.Tiling,
		Base:         base,
		Dispositions: best,
		Actions:      actions,
		Eval:         bestEv,
	}, nil
}

// hillClimb is the deterministic fallback past maxExhaustive: start from
// all-Drop (always feasible) and greedily improve one context at a time.
func hillClimb(opts [][]option, prof policy.TilingProfile, env Env) ([]Disposition, Eval, bool) {
	k := len(prof.Contexts)
	cur := make([]Disposition, k)
	for i := range cur {
		cur[i] = Drop
	}
	ev, ok := evaluate(cur, opts, prof, env)
	if !ok {
		return cur, ev, false
	}
	for improved := true; improved; {
		improved = false
		for i := 0; i < k; i++ {
			orig := cur[i]
			for d := Disposition(0); d < numDispositions; d++ {
				if d == orig {
					continue
				}
				cur[i] = d
				cand, okc := evaluate(cur, opts, prof, env)
				if okc && betterEval(cand, ev) {
					ev = cand
					improved = true
					orig = d
				} else {
					cur[i] = orig
				}
			}
		}
	}
	return cur, ev, true
}

// BuildCtx generates the full hybrid plan for a transformed application:
// the selection-logic optimizer fixes the tiling and on-board actions,
// then DecideCtx places each context (journaling the chosen plan when ctx
// carries a mission event journal).
func BuildCtx(ctx context.Context, profiles []policy.TilingProfile, env Env) (Plan, error) {
	if err := env.Validate(); err != nil {
		return Plan{}, err
	}
	if len(profiles) == 0 {
		return Plan{}, fmt.Errorf("planner: no tiling profiles")
	}
	base, _ := policy.Optimize(profiles, env.Policy)
	for _, prof := range profiles {
		if prof.Tiling == base.Tiling {
			return DecideCtx(ctx, prof, base, env)
		}
	}
	return Plan{}, fmt.Errorf("planner: no profile for tiling %v", base.Tiling)
}

// LinkInputs is the planner's link-side environment derived from a
// simulated constellation day.
type LinkInputs struct {
	// CapacityFrac is the downlink capacity per observed frame (fade-
	// derated on fault-injected runs).
	CapacityFrac float64
	// FramesBetweenContacts is the mean frames captured per contact grant.
	FramesBetweenContacts float64
	// Contacts is the number of contact grants in the run.
	Contacts int
}

// DeriveLink reads the planner's link inputs from a sim result. Because
// fault injection already shapes the result — station outages remove
// grants, link fades derate DownlinkBits — planning against a faulted
// run is how the planner re-plans under degraded modes: capacity shrinks
// and contact gaps stretch, and the placement search responds.
func DeriveLink(res *sim.Result) LinkInputs {
	observed := float64(res.FramesObserved())
	li := LinkInputs{Contacts: len(res.Grants)}
	if observed <= 0 {
		return li
	}
	li.CapacityFrac = res.FrameCapacity() / observed
	if li.Contacts > 0 {
		li.FramesBetweenContacts = observed / float64(li.Contacts)
	} else {
		// No contacts at all: every deferred frame waits out the span.
		li.FramesBetweenContacts = observed
	}
	if li.FramesBetweenContacts < 1 {
		li.FramesBetweenContacts = 1
	}
	return li
}

// WithLink returns a copy of the environment with the link-side inputs
// replaced by a sim-derived profile.
func (e Env) WithLink(li LinkInputs) Env {
	e.Policy.CapacityFrac = li.CapacityFrac
	e.FramesBetweenContacts = li.FramesBetweenContacts
	return e
}
