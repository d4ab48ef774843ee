// Package deploy implements the "after deployment to a satellite" half of
// Kodan (Figure 7, right): the runtime that splits each frame into tiles,
// classifies every tile with the context engine, consults the selection
// logic, and either discards the tile, queues it raw for downlink, or runs
// the chosen specialized model and queues the predicted high-value pixels.
// Bent-pipe and direct-deploy baseline runtimes share the same accounting.
//
// Execution time is modeled, not measured: each tile contributes the
// context-engine cost plus the Table 1 per-tile latency of any model run,
// matching how the paper attributes time (wall-clock inference on our
// stand-in classifiers says nothing about a Jetson Orin).
package deploy

import (
	"time"

	"kodan/internal/app"
	"kodan/internal/hw"
	"kodan/internal/imagery"
	"kodan/internal/nn"
	"kodan/internal/policy"
	"kodan/internal/value"
	"kodan/internal/xrand"
)

// TileOutcome records the runtime's handling of one tile.
type TileOutcome struct {
	// Context is the engine-assigned context.
	Context int
	// Action is what the selection logic chose.
	Action policy.Action
	// Chunk is the data queued for downlink (zero for discards).
	Chunk value.Chunk
	// Time is the modeled processing time for this tile.
	Time time.Duration
	// Confusion is the filter's per-pixel confusion (zero unless a model
	// ran).
	Confusion nn.Confusion
}

// FrameOutcome aggregates one frame.
type FrameOutcome struct {
	Tiles []TileOutcome
	// Time is the modeled frame processing time.
	Time time.Duration
	// ObservedBits and ObservedValueBits account the raw frame content.
	ObservedBits      float64
	ObservedValueBits float64
}

// Chunks returns the frame's downlink queue entries.
func (f FrameOutcome) Chunks() []value.Chunk {
	var out []value.Chunk
	for _, t := range f.Tiles {
		if t.Chunk.Bits > 0 {
			out = append(out, t.Chunk)
		}
	}
	return out
}

// Classifier assigns a context to each tile at runtime. The trained
// context engine (ctxengine.Set) is the implementation; it serves both
// expert contexts (Source: ctxengine.Expert) and automatic ones.
type Classifier interface {
	// Classify returns the tile's context in [0, Contexts()).
	Classify(t *imagery.Tile) int
	// Contexts returns the number of contexts the classifier emits.
	Contexts() int
}

// Runtime is the Kodan on-orbit runtime for one application deployment.
type Runtime struct {
	// Engine classifies tiles into contexts.
	Engine Classifier
	// Suite holds the generic and specialized models at the selected
	// tiling.
	Suite *app.Suite
	// Logic is the generated selection logic.
	Logic policy.Selection
	// Target is the hardware platform (for modeled time).
	Target hw.Target
	// TileBits is the downlink size of one raw tile.
	TileBits float64
}

// ProcessFrame runs the runtime over one frame's tiles. rng supplies the
// model-noise draws; pass a deterministic stream.
func (r *Runtime) ProcessFrame(tiles []*imagery.Tile, rng *xrand.Rand) FrameOutcome {
	out := FrameOutcome{Tiles: make([]TileOutcome, 0, len(tiles))}
	engineMs := r.Target.ContextEngineMsPerTile()
	modelMs := r.Suite.Arch.PerTileMs[r.Target]
	var mask []bool
	for _, t := range tiles {
		to := TileOutcome{Time: time.Duration(engineMs * float64(time.Millisecond))}
		to.Context = r.Engine.Classify(t)
		if to.Context < len(r.Logic.Actions) {
			to.Action = r.Logic.Actions[to.Context]
		} else {
			// Unknown context (engine drift): be conservative, filter.
			to.Action = policy.Specialized
		}
		// Discard (and Deferred, which no on-board logic carries) queues
		// nothing.
		switch {
		case to.Action == policy.Downlink:
			to.Chunk = value.Chunk{
				Bits:      r.TileBits,
				ValueBits: r.TileBits * t.HighValueFrac(),
			}
		case to.Action.RunsModel():
			m := r.Suite.Generic
			switch {
			case to.Action == policy.Specialized && to.Context < len(r.Suite.Special):
				m = r.Suite.Special[to.Context]
			case to.Action == policy.Merged && to.Context < len(r.Suite.Merged):
				m = r.Suite.Merged[to.Context]
			}
			if cap(mask) < t.Pixels() {
				mask = make([]bool, t.Pixels())
			}
			mask = mask[:t.Pixels()]
			conf := m.PredictTileInto(t, rng, mask)
			kept := 0
			keptValue := 0
			for p, keep := range mask {
				if keep {
					kept++
					if t.Truth[p] {
						keptValue++
					}
				}
			}
			n := float64(t.Pixels())
			to.Chunk = value.Chunk{
				Bits:      r.TileBits * float64(kept) / n,
				ValueBits: r.TileBits * float64(keptValue) / n,
			}
			to.Confusion = conf
			to.Time += time.Duration(modelMs * float64(time.Millisecond))
		}
		out.ObservedBits += r.TileBits
		out.ObservedValueBits += r.TileBits * t.HighValueFrac()
		out.Time += to.Time
		out.Tiles = append(out.Tiles, to)
	}
	return out
}

// BentPipeFrame queues the whole frame raw with zero processing time.
func BentPipeFrame(tiles []*imagery.Tile, tileBits float64) FrameOutcome {
	out := FrameOutcome{Tiles: make([]TileOutcome, 0, len(tiles))}
	for _, t := range tiles {
		to := TileOutcome{
			Context: -1,
			Action:  policy.Downlink,
			Chunk: value.Chunk{
				Bits:      tileBits,
				ValueBits: tileBits * t.HighValueFrac(),
			},
		}
		out.ObservedBits += tileBits
		out.ObservedValueBits += to.Chunk.ValueBits
		out.Tiles = append(out.Tiles, to)
	}
	return out
}

// Deployment scales sampled frame outcomes to a full mission ledger under
// the real-time constraint: a satellite whose average frame time exceeds
// the deadline processes only deadline/frameTime of captures (the rest
// arrive while it is busy), and with FillIdle those unprocessed frames pad
// the downlink queue raw.
type Deployment struct {
	// FramesObserved is the number of frames captured over the mission.
	FramesObserved float64
	// CapacityBits is the mission's total downlink capacity.
	CapacityBits float64
	// FrameBits is the raw size of one frame.
	FrameBits float64
	// Deadline is the frame deadline.
	Deadline time.Duration
	// FillIdle pads the queue with raw unprocessed frames.
	FillIdle bool
}

// Ledger extrapolates sampled outcomes to the mission scale.
func (d Deployment) Ledger(outcomes []FrameOutcome) value.Ledger {
	if len(outcomes) == 0 {
		return value.Ledger{CapacityBits: d.CapacityBits}
	}
	var chunkBits, chunkValue float64
	var obsBits, obsValue float64
	var total time.Duration
	for _, o := range outcomes {
		for _, c := range o.Chunks() {
			chunkBits += c.Bits
			chunkValue += c.ValueBits
		}
		obsBits += o.ObservedBits
		obsValue += o.ObservedValueBits
		total += o.Time
	}
	n := float64(len(outcomes))
	avgTime := time.Duration(float64(total) / n)
	p := 1.0
	if avgTime > d.Deadline && avgTime > 0 {
		p = float64(d.Deadline) / float64(avgTime)
	}
	prevalence := 0.0
	if obsBits > 0 {
		prevalence = obsValue / obsBits
	}

	// Per-observed-frame mix, scaled to the mission.
	scale := d.FramesObserved / n
	queueBits := chunkBits * p * scale
	queueValue := chunkValue * p * scale
	if d.FillIdle && p < 1 {
		rawBits := d.FramesObserved * (1 - p) * d.FrameBits
		queueBits += rawBits
		queueValue += rawBits * prevalence
	}
	sent, sentValue := value.Drain([]value.Chunk{{Bits: queueBits, ValueBits: queueValue}}, d.CapacityBits)
	return value.Ledger{
		CapacityBits:          d.CapacityBits,
		DownlinkedBits:        sent,
		HighValueBits:         sentValue,
		ObservedBits:          d.FramesObserved * d.FrameBits,
		ObservedHighValueBits: d.FramesObserved * d.FrameBits * prevalence,
	}
}
