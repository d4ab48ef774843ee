// Package mission runs time-resolved, multi-day deployment simulations: a
// chronological event loop over frame captures and ground-station contact
// grants, with a busy/idle processor, a bounded onboard buffer, and a FIFO
// downlink queue drained at the radio rate during contacts. The timeline —
// the Landsat 8 platform's captures and contention-resolved grants — comes
// from internal/sim, and each tile's outcome from the selection logic's
// per-context Yield (internal/policy). It is the dynamic counterpart of
// internal/policy's steady-state estimator — the two must agree in the
// long run (a property the tests check), but the mission simulator
// additionally exposes transients the analytic model cannot: queue growth
// between contacts, buffer overflow drops, and the burstiness of
// contact-limited downlink.
//
// Frames are synthesized statistically rather than rendered: each frame
// draws its tiles' contexts from the measured context distribution (with
// frame-level coherence, since real frames are geographically coherent),
// and each tile's downlink outcome follows the measured per-context
// confusion rates. This is the same two-level methodology as the paper's
// system simulation (measure once, simulate cheaply).
package mission

import (
	"context"
	"fmt"
	"sort"
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/link"
	"kodan/internal/policy"
	"kodan/internal/sim"
	"kodan/internal/value"
	"kodan/internal/xrand"
)

// Config describes a mission run. The mission always flies the Landsat 8
// reference platform (sim.Landsat8Config with one satellite): its orbit
// from Epoch, the WRS-2 grid, the multispectral camera, the three-station
// ground segment and its radio.
type Config struct {
	// Epoch is the mission start.
	Epoch time.Time
	// Days is the mission duration in days.
	Days int

	// Arch is the deployed application (for per-tile latency).
	Arch app.Architecture
	// Target is the hardware platform.
	Target hw.Target
	// Profile is the measured per-context profile at the deployed tiling.
	Profile policy.TilingProfile
	// Selection is the deployed selection logic. Its tiling must match
	// Profile's, and no context may be Deferred: the mission loop models
	// no ground deferral.
	Selection policy.Selection
	// UseEngine accounts the context-engine cost per tile (Kodan runtimes
	// pay it; the direct-deploy baseline does not).
	UseEngine bool
	// FillIdle queues unprocessed frames raw instead of dropping them.
	FillIdle bool

	// BufferBits bounds the onboard downlink queue; 0 means unlimited.
	// When the buffer is full, raw (unassessed) data is dropped first,
	// oldest first; then the chunks with the lowest system-estimated
	// value density (raw filler before filtered products).
	BufferBits float64
	// Seed drives the statistical frame draws.
	Seed uint64
}

// coherence is the probability that a frame's tiles all share one context
// (frames are geographically coherent); the rest draw tiles independently.
const coherence = 0.7

// withDefaults fills the unset seed.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// validate rejects inconsistent configurations.
func (c Config) validate() error {
	if c.Days <= 0 {
		return fmt.Errorf("mission: non-positive duration %d days", c.Days)
	}
	if len(c.Selection.Actions) != len(c.Profile.Contexts) {
		return fmt.Errorf("mission: selection has %d actions for %d contexts",
			len(c.Selection.Actions), len(c.Profile.Contexts))
	}
	if c.Selection.Tiling.PerSide != c.Profile.Tiling.PerSide {
		return fmt.Errorf("mission: selection tiling %v != profile tiling %v",
			c.Selection.Tiling, c.Profile.Tiling)
	}
	for i, a := range c.Selection.Actions {
		if a == policy.Deferred {
			return fmt.Errorf("mission: context %d is %v; the mission loop models no ground deferral", i, a)
		}
	}
	return nil
}

// Result is the mission outcome.
type Result struct {
	// Ledger is the full-mission downlink accounting.
	Ledger value.Ledger
	// FramesCaptured, FramesProcessed, and FramesMissed count captures,
	// frames processed in time, and frames that arrived while the
	// processor was busy.
	FramesCaptured  int
	FramesProcessed int
	FramesMissed    int
	// PeakQueueBits is the largest onboard queue the mission saw.
	PeakQueueBits float64
	// DroppedBits counts data discarded to buffer overflow.
	DroppedBits float64
	// QueuedBits is the data still aboard when the mission ends.
	QueuedBits float64
	// ContactTime is the total downlink time granted.
	ContactTime time.Duration
}

// DVD returns the mission's data value density.
func (r *Result) DVD() float64 { return r.Ledger.DVD() }

// event is a point on the mission timeline.
type event struct {
	at      time.Time
	capture bool       // capture event; otherwise a grant start
	grant   link.Grant // valid when !capture
}

// Run executes the mission.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	events, platform, err := timeline(cfg.Epoch, time.Duration(cfg.Days)*24*time.Hour)
	if err != nil {
		return nil, err
	}

	frameBits := platform.Camera.FrameBits()
	tileBits := frameBits / float64(cfg.Selection.Tiling.Tiles())
	rng := xrand.New(cfg.Seed)
	fracs := contextWeights(cfg.Profile)

	res := &Result{}
	q := newQueue(cfg.BufferBits)
	var busyUntil time.Time

	for _, ev := range events {
		if ev.capture {
			res.FramesCaptured++
			res.Ledger.ObservedBits += frameBits
			// Draw the frame's context mix.
			contexts := drawFrame(cfg, fracs, rng)
			var frameValue float64
			for _, c := range contexts {
				frameValue += tileBits * cfg.Profile.Contexts[c].HighValueFrac
			}
			res.Ledger.ObservedHighValueBits += frameValue

			if ev.at.Before(busyUntil) {
				// Processor still busy: the frame is missed.
				res.FramesMissed++
				if cfg.FillIdle {
					q.push(value.Chunk{Bits: frameBits, ValueBits: frameValue}, false)
					res.DroppedBits += q.enforce()
					if q.bits > res.PeakQueueBits {
						res.PeakQueueBits = q.bits
					}
				}
				continue
			}
			res.FramesProcessed++
			procTime, chunks, assessed := processFrame(cfg, contexts, tileBits)
			busyUntil = ev.at.Add(procTime)
			for i, ch := range chunks {
				q.push(ch, assessed[i])
			}
			res.DroppedBits += q.enforce()
			if q.bits > res.PeakQueueBits {
				res.PeakQueueBits = q.bits
			}
			continue
		}
		// Grant: drain the queue FIFO at the radio rate.
		res.ContactTime += ev.grant.Dur
		capacity := platform.Radio.Bits(ev.grant.Dur)
		res.Ledger.CapacityBits += capacity
		bits, val := q.drain(capacity)
		res.Ledger.DownlinkedBits += bits
		res.Ledger.HighValueBits += val
	}
	res.QueuedBits = q.bits
	return res, nil
}

// timeline flies the mission's platform over span with sim and merges its
// captures and contact grants into one chronological event list. It
// returns the simulated configuration for the camera and radio.
func timeline(epoch time.Time, span time.Duration) ([]event, sim.Config, error) {
	sr, err := sim.RunCtx(context.Background(), sim.Landsat8Config(epoch, span, 1))
	if err != nil {
		return nil, sim.Config{}, err
	}
	captures := sr.Captures[0]
	events := make([]event, 0, len(captures)+len(sr.Grants))
	for _, c := range captures {
		events = append(events, event{at: c.Time, capture: true})
	}
	for _, g := range sr.Grants {
		events = append(events, event{at: g.Start, grant: g})
	}
	// The sort is not stable: the tie order follows the append order
	// above, which the mission's results depend on.
	sort.Slice(events, func(i, j int) bool { return events[i].at.Before(events[j].at) })
	return events, sr.Config, nil
}

// contextWeights extracts the tile-fraction weights.
func contextWeights(tp policy.TilingProfile) []float64 {
	w := make([]float64, len(tp.Contexts))
	for i, c := range tp.Contexts {
		w[i] = c.TileFrac
	}
	return w
}

// drawFrame draws per-tile contexts with frame-level coherence.
func drawFrame(cfg Config, fracs []float64, rng *xrand.Rand) []int {
	tiles := cfg.Selection.Tiling.Tiles()
	out := make([]int, tiles)
	if rng.Bool(coherence) {
		c := rng.Choice(fracs)
		for i := range out {
			out[i] = c
		}
		return out
	}
	for i := range out {
		out[i] = rng.Choice(fracs)
	}
	return out
}

// processFrame returns the frame's processing time, downlink chunks, and
// per-chunk "assessed" flags (whether the system holds a value estimate
// for the chunk) under the selection logic, using expected per-context
// rates.
func processFrame(cfg Config, contexts []int, tileBits float64) (time.Duration, []value.Chunk, []bool) {
	var ms float64
	var chunks []value.Chunk
	var assessed []bool
	engineMs := cfg.Target.ContextEngineMsPerTile()
	modelMs := cfg.Arch.PerTileMs[cfg.Target]
	for _, c := range contexts {
		if cfg.UseEngine {
			ms += engineMs
		}
		a := cfg.Selection.Actions[c]
		if a.RunsModel() {
			ms += modelMs
		}
		if kept, val, ok := cfg.Profile.Contexts[c].Yield(a); ok && kept > 0 {
			chunks = append(chunks, value.Chunk{Bits: tileBits * kept, ValueBits: tileBits * val})
			// A model's output or a context-engine verdict is a value
			// estimate; a bent pipe (no engine) downlinks blind.
			assessed = append(assessed, a.RunsModel() || cfg.UseEngine)
		}
	}
	return time.Duration(ms * float64(time.Millisecond)), chunks, assessed
}

// qitem is a queued chunk plus whether the system holds a value estimate
// for it (raw unassessed data cannot be ranked by the storage manager).
// A dead item is a tombstone left by a whole-chunk eviction.
type qitem struct {
	chunk    value.Chunk
	assessed bool
	dead     bool
}

// queue is a FIFO downlink queue with an optional bit bound. Overflow
// drops raw (unassessed) data first, oldest first, then the
// lowest-estimated-density assessed chunks. The estimate comes from the
// context engine and measured model rates — never from ground truth — so
// a bent pipe, which assesses nothing, degrades to plain FIFO eviction.
//
// The resident items are the live entries of items[head:], in FIFO order.
// Draining advances head and evictions leave tombstones, so neither
// shifts the tail; compact reclaims the dead entries once they outnumber
// the live ones.
type queue struct {
	limit float64 // 0 = unlimited
	items []qitem
	head  int // index of the oldest entry not yet drained
	raw   int // no live unassessed item sits below this index
	live  int // resident (non-tombstoned) items in items[head:]
	dead  int // tombstones in items[head:]
	bits  float64
}

// compactMin is the garbage (drained plus tombstoned entries) below which
// compact is not worth a copy.
const compactMin = 64

func newQueue(limit float64) *queue { return &queue{limit: limit} }

func (q *queue) push(c value.Chunk, assessed bool) {
	if c.Bits <= 0 {
		return
	}
	q.items = append(q.items, qitem{chunk: c, assessed: assessed})
	q.live++
	q.bits += c.Bits
}

// enforce applies the buffer bound and returns the bits dropped.
func (q *queue) enforce() float64 {
	if q.limit <= 0 || q.bits <= q.limit {
		return 0
	}
	var dropped float64
	for q.bits > q.limit && q.live > 0 {
		victimIdx := q.pickVictim()
		victim := q.items[victimIdx]
		over := q.bits - q.limit
		if victim.chunk.Bits <= over {
			q.items[victimIdx].dead = true
			q.live--
			q.dead++
			q.bits -= victim.chunk.Bits
			dropped += victim.chunk.Bits
			continue
		}
		frac := over / victim.chunk.Bits
		q.items[victimIdx].chunk = value.Chunk{
			Bits:      victim.chunk.Bits - over,
			ValueBits: victim.chunk.ValueBits * (1 - frac),
		}
		q.bits -= over
		dropped += over
	}
	q.compact()
	return dropped
}

// pickVictim returns the index to evict: the oldest unassessed chunk if
// any exist, else the lowest-estimated-density assessed chunk (the oldest
// among equals).
func (q *queue) pickVictim() int {
	for ; q.raw < len(q.items); q.raw++ {
		if it := q.items[q.raw]; !it.dead && !it.assessed {
			return q.raw
		}
	}
	worst := -1
	for i := q.head; i < len(q.items); i++ {
		if q.items[i].dead {
			continue
		}
		if worst < 0 || q.items[i].chunk.Density() < q.items[worst].chunk.Density() {
			worst = i
		}
	}
	return worst
}

// drain sends up to capacity bits FIFO and returns (bits, valueBits) sent.
func (q *queue) drain(capacity float64) (bits, val float64) {
	for capacity > 0 && q.live > 0 {
		if q.items[q.head].dead {
			q.head++
			q.dead--
			continue
		}
		head := q.items[q.head].chunk
		if head.Bits <= capacity {
			bits += head.Bits
			val += head.ValueBits
			capacity -= head.Bits
			q.bits -= head.Bits
			q.head++
			q.live--
			continue
		}
		frac := capacity / head.Bits
		bits += capacity
		val += head.ValueBits * frac
		q.items[q.head].chunk = value.Chunk{
			Bits:      head.Bits - capacity,
			ValueBits: head.ValueBits * (1 - frac),
		}
		q.bits -= capacity
		capacity = 0
	}
	q.raw = max(q.raw, q.head)
	q.compact()
	return bits, val
}

// compact moves the live items to the front of the backing array once the
// drained and tombstoned entries outnumber them, which keeps the copying
// amortised O(1) per removal.
func (q *queue) compact() {
	garbage := q.head + q.dead
	if garbage < compactMin || garbage <= q.live {
		return
	}
	n := 0
	raw := -1
	for i := q.head; i < len(q.items); i++ {
		if q.items[i].dead {
			continue
		}
		if raw < 0 && i >= q.raw {
			raw = n
		}
		q.items[n] = q.items[i]
		n++
	}
	if raw < 0 {
		raw = n
	}
	clear(q.items[n:])
	q.items = q.items[:n]
	q.head, q.raw, q.dead = 0, raw, 0
}
