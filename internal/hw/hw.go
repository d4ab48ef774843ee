// Package hw models the paper's three hardware deployment targets and the
// per-frame timing arithmetic built on Table 1's measured per-tile
// latencies. Execution times are hardware facts the reproduction cannot
// re-measure (the devices are physical), so — per the substitution rules —
// they are inputs taken from the paper, and everything downstream (frame
// times, deadline misses, selection-logic choices) is computed from them.
package hw

import (
	"fmt"
	"strings"
	"time"
)

// Target is a hardware deployment target.
type Target int

// The paper's targets (Table 1 column order).
const (
	// GTX1070Ti is the desktop GPU (~180 W).
	GTX1070Ti Target = iota
	// I7_7800X is the 12-core desktop CPU (~140 W).
	I7_7800X
	// Orin15W is the Jetson AGX Orin embedded GPU in its 15 W mode — the
	// realistic cubesat payload computer.
	Orin15W
	NumTargets
)

// Targets returns all targets in Table 1 column order.
func Targets() []Target { return []Target{GTX1070Ti, I7_7800X, Orin15W} }

// String implements fmt.Stringer.
func (t Target) String() string {
	switch t {
	case GTX1070Ti:
		return "1070 Ti"
	case I7_7800X:
		return "i7-7800"
	case Orin15W:
		return "Orin 15W"
	default:
		return fmt.Sprintf("target(%d)", int(t))
	}
}

// ParseTarget resolves a target name: the CLI short names (1070ti, i7,
// orin) or the Table 1 display names, case-insensitively. The empty name
// is the Orin, the reference cubesat payload computer.
func ParseTarget(s string) (Target, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "1070ti", "gtx1070ti", "1070 ti":
		return GTX1070Ti, nil
	case "i7", "i7-7800", "i7_7800x":
		return I7_7800X, nil
	case "orin", "orin15w", "orin 15w", "":
		return Orin15W, nil
	default:
		return 0, fmt.Errorf("unknown target %q (want 1070ti, i7, or orin)", s)
	}
}

// ContextEngineMsPerTile returns the per-tile cost of running Kodan's
// context engine (tile summary statistics plus a small classifier). The
// paper does not report this separately; it is modeled as a small constant
// well under the cheapest application's per-tile time on each target.
func (t Target) ContextEngineMsPerTile() float64 {
	switch t {
	case GTX1070Ti:
		return 8
	case I7_7800X:
		return 20
	case Orin15W:
		return 30
	default:
		return 30
	}
}

// FrameTime returns the time to process one frame: every tile pays the
// context-engine cost when the engine runs, and non-elided tiles pay the
// model's per-tile latency.
func FrameTime(modelMsPerTile float64, tiles int, elidedFrac float64, engine bool, t Target) time.Duration {
	if tiles <= 0 {
		panic("hw: non-positive tile count")
	}
	if elidedFrac < 0 || elidedFrac > 1 {
		panic("hw: elided fraction outside [0,1]")
	}
	ms := float64(tiles) * (1 - elidedFrac) * modelMsPerTile
	if engine {
		ms += float64(tiles) * t.ContextEngineMsPerTile()
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// DirectFrameTime returns the frame time of a direct deployment: all tiles
// through the model, no context engine.
func DirectFrameTime(modelMsPerTile float64, tiles int, t Target) time.Duration {
	return FrameTime(modelMsPerTile, tiles, 0, false, t)
}
