// Package policy implements Kodan's selection logic (Section 3.4): the
// per-deployment policy that fixes the frame tile count and, for every
// context, one of four actions — discard, downlink without processing,
// run the context-specialized model, or run the generic reference model.
//
// The one-time transformation step sweeps tilings and per-context actions
// against an analytic model of the deployment — frame deadline, measured
// per-tile execution times, measured per-context confusion rates, and the
// simulated downlink capacity — and picks the combination maximizing the
// data value density of the saturated downlink. The same analytic model
// also evaluates the bent-pipe and direct-deploy baselines, so every DVD
// number in the reproduction comes from one accounting.
package policy

import (
	"fmt"
	"sync"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/nn"
	"kodan/internal/search"
	"kodan/internal/tiling"
	"kodan/internal/value"
)

// Action is a per-context runtime decision.
type Action int

// Actions, in the order the paper describes them (Figure 7's selection
// logic: Discard / specialized model / Downlink).
const (
	// Discard drops the tile without processing (mostly low-value context).
	Discard Action = iota
	// Downlink transmits the tile unprocessed (mostly high-value context).
	Downlink
	// Specialized runs the single-context specialized model and transmits
	// the predicted high-value pixels.
	Specialized
	// Merged runs the multi-context (dominant-geography group) specialized
	// model — Section 3.3's "specialized across multiple contexts" — and
	// transmits the predicted high-value pixels.
	Merged
	// Generic runs the reference model and transmits predicted high-value
	// pixels.
	Generic
	numActions
	// Deferred buffers the tile raw on board and downlinks it against
	// later contact windows for ground processing — the hybrid planner's
	// defer-to-ground disposition (internal/planner). It is declared after
	// numActions so the selection-logic optimizer, which sweeps the
	// paper's on-board action set, never considers it; only planner
	// output carries it.
	Deferred
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Discard:
		return "discard"
	case Downlink:
		return "downlink"
	case Specialized:
		return "specialized"
	case Merged:
		return "merged"
	case Generic:
		return "generic"
	case Deferred:
		return "deferred"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// RunsModel reports whether the action runs a model on board, paying the
// application's per-tile model time.
func (a Action) RunsModel() bool {
	return a == Specialized || a == Merged || a == Generic
}

// ContextProfile is the transformation step's measured knowledge of one
// context at one tiling.
type ContextProfile struct {
	// TileFrac is the fraction of tiles the context engine assigns here.
	TileFrac float64
	// HighValueFrac is the pixel-weighted high-value fraction.
	HighValueFrac float64
	// Generic, Special, and Merged are the measured validation confusions
	// of the reference, single-context, and multi-context models on this
	// context.
	Generic nn.Confusion
	Special nn.Confusion
	Merged  nn.Confusion
}

// Yield is what action a queues for downlink from each processed tile of
// the context: kept is the fraction of the tile's bits queued and value
// the fraction of its bits that are queued and high-value. ok is false when
// the action queues nothing: Discard, Deferred (its bits ride later
// contact windows), and a model whose validation confusion is empty. A
// model action still costs model time when ok is false (see RunsModel).
func (cp ContextProfile) Yield(a Action) (kept, value float64, ok bool) {
	var conf nn.Confusion
	switch a {
	case Downlink:
		return 1, cp.HighValueFrac, true
	case Specialized:
		conf = cp.Special
	case Merged:
		conf = cp.Merged
	case Generic:
		conf = cp.Generic
	default:
		return 0, 0, false
	}
	total := float64(conf.Total())
	if total == 0 {
		return 0, 0, false
	}
	return conf.PositiveRate(), float64(conf.TP) / total, true
}

// TilingProfile aggregates the per-context profiles of one tiling.
type TilingProfile struct {
	Tiling   tiling.Tiling
	Contexts []ContextProfile
}

// Prevalence returns the tile-weighted high-value fraction.
func (tp TilingProfile) Prevalence() float64 {
	var p float64
	for _, c := range tp.Contexts {
		p += c.TileFrac * c.HighValueFrac
	}
	return p
}

// Env describes the deployment environment the logic is generated for.
type Env struct {
	// App is the application (supplies per-tile latencies).
	App app.Architecture
	// Target is the hardware platform.
	Target hw.Target
	// Deadline is the frame deadline from the orbit and grid.
	Deadline time.Duration
	// CapacityFrac is the downlink capacity per observed frame as a
	// fraction of the frame size (e.g. 0.21 for a lone Landsat satellite).
	CapacityFrac float64
	// FillIdle downlinks raw unprocessed frames when the processed output
	// does not saturate the link (maximizes link utility).
	FillIdle bool
	// UseEngine runs the context engine on every tile (Kodan); baselines
	// that never consult contexts leave it false.
	UseEngine bool
}

// Selection is a generated selection logic.
type Selection struct {
	Tiling  tiling.Tiling
	Actions []Action // indexed by context
}

// ElidedFrac returns the tile fraction that skips model execution.
func (s Selection) ElidedFrac(tp TilingProfile) float64 {
	var f float64
	for c, a := range s.Actions {
		if !a.RunsModel() {
			f += tp.Contexts[c].TileFrac
		}
	}
	return f
}

// DeferredFrac returns the tile fraction the selection routes to the
// deferred/ground disposition.
func (s Selection) DeferredFrac(tp TilingProfile) float64 {
	var f float64
	for c, a := range s.Actions {
		if a == Deferred {
			f += tp.Contexts[c].TileFrac
		}
	}
	return f
}

// Estimate is the analytic evaluation of a selection in an environment.
type Estimate struct {
	// FrameTime is the expected processing time per frame.
	FrameTime time.Duration
	// ProcessedFrac is the fraction of captured frames processed before
	// the next capture (1 when the deadline is met on average).
	ProcessedFrac float64
	// Ledger is the per-observed-frame accounting in frame-size units.
	Ledger value.Ledger
	// DVD is the data value density of the saturated downlink.
	DVD float64
}

// FrameTime returns the expected per-frame processing time of a selection.
func FrameTime(s Selection, tp TilingProfile, env Env) time.Duration {
	return evaluatorFor(s, tp, env).frameTime(s.Actions)
}

// Evaluate computes the expected deployment accounting of a selection.
// All bit quantities are fractions of one frame's bits, averaged over
// observed frames; scaling to a real deployment multiplies by frame size
// and frame count, which cancels out of every ratio.
func Evaluate(s Selection, tp TilingProfile, env Env) Estimate {
	return evaluatorFor(s, tp, env).evaluate(s.Actions)
}

// EvaluateAtTime is Evaluate with the frame processing time overridden —
// used by the Figure 10 sweep, which varies execution time as a free
// parameter to map DVD against compute performance.
func EvaluateAtTime(s Selection, tp TilingProfile, env Env, ft time.Duration) Estimate {
	return evaluatorFor(s, tp, env).evaluateAt(s.Actions, ft)
}

// evaluatorFor checks that the selection has one action per context and
// returns the profile's evaluator.
func evaluatorFor(s Selection, tp TilingProfile, env Env) *evaluator {
	if len(s.Actions) != len(tp.Contexts) {
		panic("policy: action/context count mismatch")
	}
	return newEvaluator(tp, env)
}

// EvaluateBentPipe returns the bent-pipe baseline: raw frames downlinked
// indiscriminately until the link saturates.
func EvaluateBentPipe(prevalence float64, env Env) Estimate {
	led := value.Ledger{
		CapacityBits:          env.CapacityFrac,
		DownlinkedBits:        env.CapacityFrac,
		HighValueBits:         env.CapacityFrac * prevalence,
		ObservedBits:          1,
		ObservedHighValueBits: prevalence,
	}
	if env.CapacityFrac > 1 {
		// More capacity than data: everything goes down.
		led.DownlinkedBits = 1
		led.HighValueBits = prevalence
	}
	return Estimate{ProcessedFrac: 1, Ledger: led, DVD: led.DVD()}
}

// DirectSelection returns the direct-deployment policy of prior OEC work:
// every tile through the reference model at the given tiling, no context
// engine.
func DirectSelection(tp TilingProfile) Selection {
	actions := make([]Action, len(tp.Contexts))
	for i := range actions {
		actions[i] = Generic
	}
	return Selection{Tiling: tp.Tiling, Actions: actions}
}

// Optimize generates the selection logic: it sweeps every candidate tiling
// and per-context action assignment and returns the selection maximizing
// DVD (ties broken toward higher recovery, then shorter frame time). Past
// search.MaxExhaustive contexts, where the exhaustive sweep would be
// large, it falls back to deterministic hill climbing from the
// all-specialized assignment.
func Optimize(profiles []TilingProfile, env Env) (Selection, Estimate) {
	if len(profiles) == 0 {
		panic("policy: no tiling profiles")
	}
	env.UseEngine = true
	var best Selection
	var bestEst Estimate
	first := true
	for _, tp := range profiles {
		sel, est := optimizeActions(tp, env)
		if first || better(est, bestEst) {
			best, bestEst = sel, est
			first = false
		}
	}
	return best, bestEst
}

// optActions is the paper's selection-logic action set (Figure 7):
// discard, downlink, or one of the specialized models (single-context or
// multi-context). The generic model remains available to Evaluate for the
// direct-deploy baseline but is dominated by the specialists at equal
// cost, so the optimizer skips it.
var optActions = []Action{Discard, Downlink, Specialized, Merged}

func optimizeActions(tp TilingProfile, env Env) (Selection, Estimate) {
	if len(tp.Contexts) <= search.MaxExhaustive {
		return exhaustiveSearch(tp, env)
	}
	return hillClimb(tp, env)
}

// sweepScore is one candidate's comparison keys: everything better reads.
type sweepScore struct {
	dvd, val float64
	ft       time.Duration
}

// sweepScores pools the sweep's score tables, so repeated selection-logic
// generations allocate nothing once warm.
var sweepScores = sync.Pool{New: func() any { return new(search.Table[sweepScore]) }}

// exhaustiveSearch returns the best selection over every action assignment
// in optActions^k. Candidate code = sum of digit_c * 4^c, digit c indexing
// optActions for context c; internal/search owns the code-order tie rule.
//
// Frame time depends only on which contexts run a model (Specialized and
// Merged share msAdd, Discard and Downlink add literal zero), so the search
// walks the 2^k model masks and computes the frame time and the processed
// fraction once per mask. Within a mask it walks the contexts depth-first
// in order 0..k-1, carrying the running chunk sums, so every leaf's sums
// are the evaluator's left-to-right sums bit for bit. Leaves record their
// keys in a search.Table; one code-order scan with better picks the
// winner, and the evaluator recomputes its Estimate.
func exhaustiveSearch(tp TilingProfile, env Env) (Selection, Estimate) {
	k := len(tp.Contexts)
	ev := newEvaluator(tp, env)

	type partial struct {
		bits, val float64
		chunks    int
		code      int
	}
	var pre [search.MaxExhaustive + 1]partial
	var choice [search.MaxExhaustive]int
	var pow4 [search.MaxExhaustive]int
	combos := 1
	for c := 0; c < k; c++ {
		pow4[c] = combos
		combos *= len(optActions)
	}
	tab := sweepScores.Get().(*search.Table[sweepScore])
	defer sweepScores.Put(tab)
	tab.Reset(combos)
	actions := make([]Action, k)
	for mask := 0; mask < 1<<k; mask++ {
		for c := range actions {
			actions[c] = Discard
			if mask>>c&1 != 0 {
				actions[c] = Specialized
			}
		}
		ft := ev.frameTime(actions)
		p := ev.processedFrac(ft)
		if k == 0 {
			_, val := ev.drain(p, 0, 0, 0)
			tab.Put(0, sweepScore{dvd: value.Ledger{CapacityBits: env.CapacityFrac, HighValueBits: val}.DVD(), val: val, ft: ft})
			continue
		}
		choice[0] = 0
		for c := 0; c >= 0; {
			// Context c takes digit 2*modelBit + choice: Discard/Downlink
			// off the mask, Specialized/Merged on it.
			d := 2*(mask>>c&1) + choice[c]
			idx := c*actionStride + int(optActions[d])
			s := &pre[c+1]
			*s = pre[c]
			if ev.counted[idx] {
				pf := p * ev.tf[c]
				s.bits += pf * ev.kept[idx]
				s.val += pf * ev.frac[idx]
				s.chunks++
			}
			s.code += d * pow4[c]
			if c+1 < k {
				c++
				choice[c] = 0
				continue
			}
			_, val := ev.drain(p, s.bits, s.val, s.chunks)
			tab.Put(s.code, sweepScore{dvd: value.Ledger{CapacityBits: env.CapacityFrac, HighValueBits: val}.DVD(), val: val, ft: ft})
			// Next leaf: bump the deepest context with a choice left,
			// unwinding the exhausted ones.
			for ; c >= 0; c-- {
				if choice[c]++; choice[c] < 2 {
					break
				}
			}
		}
	}

	var bestEst Estimate
	bestCode, first := 0, true
	for code, sc := range tab.Recorded() {
		est := Estimate{FrameTime: sc.ft, DVD: sc.dvd, Ledger: value.Ledger{HighValueBits: sc.val, ObservedHighValueBits: ev.prevalence}}
		if first || better(est, bestEst) {
			bestCode, bestEst = code, est
			first = false
		}
	}
	best := Selection{Tiling: tp.Tiling, Actions: make([]Action, k)}
	search.Decode(bestCode, len(optActions), best.Actions)
	for c, d := range best.Actions {
		best.Actions[c] = optActions[d]
	}
	return best, ev.evaluate(best.Actions)
}

// hillClimb climbs every on-board action, Generic included, from the
// all-specialized assignment.
func hillClimb(tp TilingProfile, env Env) (Selection, Estimate) {
	ev := newEvaluator(tp, env)
	sel := Selection{Tiling: tp.Tiling, Actions: make([]Action, len(tp.Contexts))}
	for i := range sel.Actions {
		sel.Actions[i] = Specialized
	}
	est, _ := search.HillClimb(sel.Actions, int(numActions), func(a []Action) (Estimate, bool) {
		return ev.evaluate(a), true
	}, better)
	return sel, est
}

// better orders estimates: DVD first, then recovery, then frame time.
func better(a, b Estimate) bool {
	const eps = 1e-12
	if a.DVD > b.DVD+eps {
		return true
	}
	if a.DVD < b.DVD-eps {
		return false
	}
	ar, br := a.Ledger.Recovery(), b.Ledger.Recovery()
	if ar > br+eps {
		return true
	}
	if ar < br-eps {
		return false
	}
	return a.FrameTime < b.FrameTime
}

// evaluator is the one evaluation engine: Evaluate, EvaluateAtTime,
// FrameTime and the optimizer's sweeps all price selections through it.
// It caches every (tiling, environment)-dependent term so the optimizer's
// inner loop — millions of probes per selection-logic generation — runs
// allocation-free on precomputed per-context constants. Its results match
// the chunk-slice form of the accounting (build each action's chunk, then
// value.Drain the slice) bit for bit: the golden figure outputs depend on
// it, and TestEvaluatorMatchesEvaluate pins it to a test-local copy of
// that form, so every expression below keeps the reference's exact shape
// and accumulation order.
type evaluator struct {
	env        Env
	prevalence float64
	// baseMs is the context-engine term of the frame time (zero when the
	// environment does not run the engine).
	baseMs float64
	// tf[c] is context c's TileFrac.
	tf []float64
	// Flat per-(context, action) tables at index c*actionStride+int(a),
	// turning the probe loop into branch-free table lookups:
	//
	//   msAdd    frame-time addend (tiles*TileFrac*PerTileMs when the
	//            action RunsModel; 0 otherwise — adding literal zero to a
	//            non-negative sum is exact)
	//   counted  whether the action queues a chunk (Yield's ok)
	//   kept     chunk bits per processed tile fraction (Yield's kept: 1
	//            for Downlink, where x*1 is exact)
	//   frac     chunk value per processed tile fraction (Yield's value)
	msAdd      []float64
	counted    []bool
	kept, frac []float64
}

// actionStride is the per-context width of the evaluator's flat tables:
// every Action value, including Deferred (declared past numActions), must
// index without bounds surprises. Deferred's table entries stay zero —
// it adds no frame time and queues no chunk.
const actionStride = int(Deferred) + 1

// newEvaluator precomputes the per-context terms for one profile in one
// environment.
func newEvaluator(tp TilingProfile, env Env) *evaluator {
	k := len(tp.Contexts)
	nA := actionStride
	e := &evaluator{
		env:        env,
		prevalence: tp.Prevalence(),
		tf:         make([]float64, k),
		msAdd:      make([]float64, k*nA),
		counted:    make([]bool, k*nA),
		kept:       make([]float64, k*nA),
		frac:       make([]float64, k*nA),
	}
	tiles := float64(tp.Tiling.Tiles())
	if env.UseEngine {
		e.baseMs = tiles * env.Target.ContextEngineMsPerTile()
	}
	for c, cp := range tp.Contexts {
		e.tf[c] = cp.TileFrac
		modelMs := tiles * cp.TileFrac * env.App.PerTileMs[env.Target]
		for a := Action(0); int(a) < nA; a++ {
			idx := c*nA + int(a)
			if a.RunsModel() {
				// A dead model (empty confusion) costs frame time but
				// queues no chunk.
				e.msAdd[idx] = modelMs
			}
			e.kept[idx], e.frac[idx], e.counted[idx] = cp.Yield(a)
		}
	}
	return e
}

// frameTime is the expected per-frame processing time of actions.
func (e *evaluator) frameTime(actions []Action) time.Duration {
	ms := e.baseMs
	nA := actionStride
	for c, a := range actions {
		ms += e.msAdd[c*nA+int(a)]
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// processedFrac is the fraction of frames processed before the next
// capture at frame time ft.
func (e *evaluator) processedFrac(ft time.Duration) float64 {
	p := 1.0
	if ft > e.env.Deadline && ft > 0 {
		p = float64(e.env.Deadline) / float64(ft)
	}
	return p
}

// evaluate prices actions at their own frame time.
func (e *evaluator) evaluate(actions []Action) Estimate {
	return e.evaluateAt(actions, e.frameTime(actions))
}

// evaluateAt prices actions at frame time ft without a chunk slice: the
// drain (value.Drain) is inlined as a running sum because a frame's chunk
// mix is consumed exactly once, in order.
func (e *evaluator) evaluateAt(actions []Action, ft time.Duration) Estimate {
	p := e.processedFrac(ft)
	var totalBits, totalVal float64
	chunks := 0
	nA := actionStride
	for c, a := range actions {
		idx := c*nA + int(a)
		if !e.counted[idx] {
			continue
		}
		pf := p * e.tf[c]
		totalBits += pf * e.kept[idx]
		totalVal += pf * e.frac[idx]
		chunks++
	}
	bits, val := e.drain(p, totalBits, totalVal, chunks)
	led := value.Ledger{
		CapacityBits:          e.env.CapacityFrac,
		DownlinkedBits:        bits,
		HighValueBits:         val,
		ObservedBits:          1,
		ObservedHighValueBits: e.prevalence,
	}
	return Estimate{FrameTime: ft, ProcessedFrac: p, Ledger: led, DVD: led.DVD()}
}

// drain adds the FillIdle filler to the summed per-context chunks and
// downlinks the mix into capacity, returning the bits and value sent.
// exhaustiveSearch calls it on its depth-first prefix sums, so the sweep
// and evaluate share every expression after the per-context loop.
func (e *evaluator) drain(p, totalBits, totalVal float64, chunks int) (bits, val float64) {
	if e.env.FillIdle && p < 1 {
		totalBits += 1 - p
		totalVal += (1 - p) * e.prevalence
		chunks++
	}
	switch {
	case e.env.CapacityFrac <= 0 || chunks == 0:
		// Mirrors value.Drain's empty cases: no capacity, or no chunks at
		// all (all-discard with no filler) downlinks nothing.
		return 0, 0
	case totalBits > e.env.CapacityFrac:
		f := e.env.CapacityFrac / totalBits
		return e.env.CapacityFrac, totalVal * f
	}
	return totalBits, totalVal
}

// SatellitesForCoverage returns the constellation population needed for
// continuous ground-track processing coverage when one satellite needs
// frameTime per frame against the deadline — prior OEC work's
// satellite-parallel pipelining (Figure 11).
func SatellitesForCoverage(frameTime, deadline time.Duration) int {
	if deadline <= 0 {
		panic("policy: non-positive deadline")
	}
	if frameTime <= deadline {
		return 1
	}
	n := int(frameTime / deadline)
	if frameTime%deadline != 0 {
		n++
	}
	return n
}
