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
	"sync"
	"time"

	"kodan/internal/policy"
	"kodan/internal/power"
	"kodan/internal/search"
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
// environment (hardware, deadline, immediate capacity), the cost vector,
// and the store-and-forward geometry.
type Env struct {
	// Policy is the selection-logic environment. CapacityFrac is the
	// shared per-observed-frame downlink pool that immediate and deferred
	// traffic both draw from.
	Policy policy.Env
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
		// A model with an empty confusion prices as option{}: no model
		// time, unlike the policy evaluator, which charges it.
		var ob option
		a := base.Actions[c]
		if kept, val, ok := cp.Yield(a); ok && a.RunsModel() {
			ob = option{modelMs: tiles * f * perTileMs, nowBits: f * kept, finished: f * val}
		} else if ok {
			ob = option{nowBits: f * kept, raw: f * val}
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
// assignment with no on-board models is exempt from the deadline check,
// so the all-Drop plan is a universal fallback.
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
	if env.limits().violated(ev.FrameTime, hasModels, ev.NowBits, ev.DeferBits) {
		return ev, false
	}

	// EnergyPerFrame clamps at the deadline, so even the engine-overrun
	// fallback prices finitely.
	energy, err := power.EnergyPerFrame(env.Policy.Target, ev.FrameTime, env.Policy.Deadline)
	if err != nil {
		return ev, false
	}
	ev.EnergyPerFrameJ = energy

	ev.ValueFrames = finished + raw
	ev.Utility = env.Costs.utility(finished, raw, ev.NowBits, ev.DeferBits, ev.GroundFrames, energy)
	if link := ev.NowBits + ev.DeferBits; link > 0 {
		ev.DVD = ev.ValueFrames / link
	}
	return ev, true
}

// limits is the hard-constraint side of an Env, unpacked once per search.
type limits struct {
	deadline              time.Duration
	capacity, gap, buffer float64
}

func (e Env) limits() limits {
	return limits{
		deadline: e.Policy.Deadline,
		capacity: e.Policy.CapacityFrac,
		gap:      e.contactGap(),
		buffer:   e.BufferFrames,
	}
}

// violated reports whether sums over some or all contexts break a hard
// constraint: the frame deadline on the on-board work, the shared link
// pool on all downlinked bits, or the buffer on the peak deferred backlog
// between contacts. Each check is monotone in its sums, so when every
// priced term is non-negative a prefix that violates has no feasible
// completion (placeSearch prunes on that).
func (l limits) violated(ft time.Duration, hasModels bool, nowBits, deferBits float64) bool {
	if hasModels && ft > l.deadline {
		return true
	}
	if nowBits+deferBits > l.capacity+feasEps {
		return true
	}
	return deferBits*l.gap > l.buffer+feasEps
}

// utility is the plan objective: finished plus discounted raw value, minus
// link, ground and energy costs.
func (c Costs) utility(finished, raw, nowBits, deferBits, ground, energy float64) float64 {
	return c.ValuePerFrame*(finished+c.RawDiscount*raw) -
		c.LinkPerFrame*(nowBits+deferBits) -
		c.GroundPerFrame*ground -
		c.EnergyPerKJ*energy/1000
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
	var best []Disposition
	var bestEv Eval
	found := false
	if k <= search.MaxExhaustive {
		best, bestEv, found = placeSearch(opts, prof, env)
	}
	if !found {
		// Past the exhaustive bound, climb from all-Drop, the universal
		// fallback. Within it nothing was feasible, so neither is all-Drop,
		// and the climb leaves it as it is.
		best = make([]Disposition, k)
		for i := range best {
			best[i] = Drop
		}
		bestEv, _ = search.HillClimb(best, int(numDispositions), func(d []Disposition) (Eval, bool) {
			return evaluate(d, opts, prof, env)
		}, betterEval)
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

// placeScore is one feasible placement's comparison keys: everything
// betterEval reads.
type placeScore struct {
	utility, deferBits, energy, nowBits float64
}

// placeScores pools placeSearch's score tables, which record the feasible
// placements, so repeated plans allocate nothing once warm.
var placeScores = sync.Pool{New: func() any { return new(search.Table[placeScore]) }}

// placeSearch is the exhaustive placement search. Placement code = sum of
// d_c * 4^c over the contexts' dispositions; internal/search owns the
// code-order tie rule, so the result is the plan a code-order scan
// evaluating every placement with evaluate and keeping the betterEval-best
// would return.
//
// The search walks the contexts depth-first in order 0..k-1, carrying the
// running sums evaluate accumulates (model milliseconds, immediate,
// deferred and ground bits, finished and raw value), so every leaf's sums
// are evaluate's left-to-right sums bit for bit. When every priced term is
// non-negative, each partial sum only grows as contexts are added and IEEE
// rounding is monotone, so a prefix that already breaks the deadline (with
// a model placed), the link pool or the buffer has no feasible completion,
// and its subtree is skipped. Leaves record their keys in a search.Table;
// one code-order scan with betterEval picks the winner, and evaluate
// recomputes its Eval.
func placeSearch(opts [][]option, prof policy.TilingProfile, env Env) ([]Disposition, Eval, bool) {
	k := len(opts)
	if k == 0 {
		ev, ok := evaluate(nil, opts, prof, env)
		return nil, ev, ok
	}
	type partial struct {
		ms, now, def, ground, finished, raw float64
		models                              bool
		code                                int
	}
	var pre [search.MaxExhaustive + 1]partial
	var disp [search.MaxExhaustive]Disposition
	var pow4 [search.MaxExhaustive]int
	combos := 1
	for c := 0; c < k; c++ {
		pow4[c] = combos
		combos *= int(numDispositions)
	}
	// Pruning needs non-negative terms (NaN fails the test) and a frame
	// time that cannot overflow time.Duration, where the conversion stops
	// being monotone.
	pre[0].ms = float64(prof.Tiling.Tiles()) * env.Policy.Target.ContextEngineMsPerTile()
	prune := pre[0].ms >= 0
	maxMs := pre[0].ms
	for _, os := range opts {
		top := 0.0
		for _, o := range os {
			prune = prune && o.modelMs >= 0 && o.nowBits >= 0 && o.deferBits >= 0
			top = math.Max(top, o.modelMs)
		}
		maxMs += top
	}
	prune = prune && maxMs*float64(time.Millisecond) < 1<<62

	lim := env.limits()
	target, costs := env.Policy.Target, env.Costs
	tab := placeScores.Get().(*search.Table[placeScore])
	defer placeScores.Put(tab)
	tab.Reset(combos)
	for c := 0; c >= 0; {
		d := disp[c]
		o := &opts[c][d]
		p, s := &pre[c], &pre[c+1]
		s.ms = p.ms + o.modelMs
		s.models = p.models || o.modelMs > 0
		s.now = p.now + o.nowBits
		s.def = p.def + o.deferBits
		s.ground = p.ground + o.ground
		s.finished = p.finished + o.finished
		s.raw = p.raw + o.raw
		s.code = p.code + int(d)*pow4[c]
		ft := time.Duration(s.ms * float64(time.Millisecond))
		if c+1 < k && !(prune && lim.violated(ft, s.models, s.now, s.def)) {
			c++
			disp[c] = 0
			continue
		}
		if c+1 == k && !lim.violated(ft, s.models, s.now, s.def) {
			if energy, err := power.EnergyPerFrame(target, ft, lim.deadline); err == nil {
				tab.Put(s.code, placeScore{
					utility:   costs.utility(s.finished, s.raw, s.now, s.def, s.ground, energy),
					deferBits: s.def,
					energy:    energy,
					nowBits:   s.now,
				})
			}
		}
		// Next candidate: bump the deepest context with a placement left,
		// unwinding the exhausted ones.
		for ; c >= 0; c-- {
			if disp[c]++; disp[c] < numDispositions {
				break
			}
		}
	}

	var bestEv Eval
	bestCode, found := 0, false
	for code, sc := range tab.Recorded() {
		ev := Eval{Utility: sc.utility, DeferBits: sc.deferBits, EnergyPerFrameJ: sc.energy, NowBits: sc.nowBits}
		if !found || betterEval(ev, bestEv) {
			bestCode, bestEv = code, ev
			found = true
		}
	}
	if !found {
		return nil, Eval{}, false
	}
	best := make([]Disposition, k)
	search.Decode(bestCode, int(numDispositions), best)
	bestEv, _ = evaluate(best, opts, prof, env)
	return best, bestEv, true
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
