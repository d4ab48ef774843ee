// Package wrs models a Landsat-style World Reference System (WRS): a fixed
// grid of scene footprints indexed by (path, row). The paper extends the
// cote simulator with the USGS WRS-2 shapefiles; we generate the grid
// analytically from the orbit geometry instead, which preserves everything
// the evaluation consumes — scene counting, revisit structure, and the
// frame cadence — without the proprietary shapefile import.
//
// In WRS-2, one orbital revolution sweeps a single path and crosses all
// rows of that path; successive revolutions step westward by ~24.7 degrees
// of node longitude, interleaving over a 16-day repeat cycle until all 233
// paths are covered. Rows count position along the orbit from the ascending
// node. The full grid is 233 x 248 = 57,784 scenes.
package wrs

import (
	"fmt"
	"math"
	"time"

	"kodan/internal/geo"
	"kodan/internal/orbit"
)

// Standard WRS-2 grid dimensions.
const (
	// DefaultPaths is the WRS-2 path count.
	DefaultPaths = 233
	// DefaultRows is the WRS-2 row count per path.
	DefaultRows = 248
)

// Grid is a world reference grid. The zero value is not useful; use
// NewGrid or Landsat8Grid.
type Grid struct {
	paths int
	rows  int
}

// NewGrid returns a grid with the given path and row counts. It panics if
// either is non-positive (a configuration error, not a runtime condition).
func NewGrid(paths, rows int) Grid {
	if paths <= 0 || rows <= 0 {
		panic("wrs: non-positive grid dimensions")
	}
	return Grid{paths: paths, rows: rows}
}

// Landsat8Grid returns the standard 233 x 248 WRS-2 grid.
func Landsat8Grid() Grid { return NewGrid(DefaultPaths, DefaultRows) }

// Paths returns the number of paths in the grid.
func (g Grid) Paths() int { return g.paths }

// Rows returns the number of rows per path.
func (g Grid) Rows() int { return g.rows }

// TotalScenes returns the number of scenes in the grid.
func (g Grid) TotalScenes() int { return g.paths * g.rows }

// Scene identifies one grid cell.
type Scene struct {
	Path int // in [0, Paths)
	Row  int // in [0, Rows)
}

// String implements fmt.Stringer in the familiar path/row notation.
func (s Scene) String() string { return fmt.Sprintf("P%03dR%03d", s.Path, s.Row) }

// Index returns a dense index for s in [0, TotalScenes).
func (g Grid) Index(s Scene) int {
	if s.Path < 0 || s.Path >= g.paths || s.Row < 0 || s.Row >= g.rows {
		panic(fmt.Sprintf("wrs: scene %v outside %dx%d grid", s, g.paths, g.rows))
	}
	return s.Path*g.rows + s.Row
}

// SceneOf inverts Index.
func (g Grid) SceneOf(index int) Scene {
	if index < 0 || index >= g.TotalScenes() {
		panic(fmt.Sprintf("wrs: index %d outside grid", index))
	}
	return Scene{Path: index / g.rows, Row: index % g.rows}
}

// argumentOfLatitude returns the angle from the ascending node along the
// orbit at time t, in [0, 2*pi). Valid for near-circular orbits, where the
// argument of latitude advances uniformly at the draconitic rate (mean
// motion plus J2 perigee drift).
func argumentOfLatitude(p *orbit.Propagator, t time.Time) float64 {
	e := p.Elements()
	dt := t.Sub(e.Epoch).Seconds()
	u0 := e.MeanAnomalyRad + e.ArgPerigeeRad
	return geo.WrapTwoPi(u0 + p.DraconiticRate()*dt)
}

// AscendingNodeTime returns the time of the most recent ascending-node
// crossing at or before t.
func AscendingNodeTime(p *orbit.Propagator, t time.Time) time.Time {
	return nodeTime(p, t, argumentOfLatitude(p, t))
}

// nodeTime steps back from t by the argument of latitude u at t.
func nodeTime(p *orbit.Propagator, t time.Time, u float64) time.Time {
	back := u / p.DraconiticRate()
	return t.Add(-time.Duration(back * float64(time.Second)))
}

// SceneAt returns the grid scene the satellite's sensor is over at time t.
// The path is fixed for a whole revolution (determined by the longitude of
// that revolution's ascending node); the row advances uniformly along the
// orbit.
func (g Grid) SceneAt(p *orbit.Propagator, t time.Time) Scene {
	u := argumentOfLatitude(p, t)
	row := int(u / (2 * math.Pi) * float64(g.rows))
	if row >= g.rows {
		row = g.rows - 1
	}
	tan := nodeTime(p, t, u)
	// The node's longitude, read straight off its Earth-fixed position: the
	// same value geo.ECEFToGeodetic returns, without the latitude solve.
	node := geo.ECIToECEF(p.Position(tan), tan)
	nodeLon := geo.Rad2Deg(geo.WrapPi(math.Atan2(node.Y, node.X)))
	frac := geo.WrapTwoPi(geo.Deg2Rad(nodeLon)) / (2 * math.Pi)
	path := int(frac * float64(g.paths))
	if path >= g.paths {
		path = g.paths - 1
	}
	return Scene{Path: path, Row: row}
}

// FramePeriod returns the time the sensor spends over one row — the paper's
// frame deadline. For the Landsat 8 orbit and the 248-row grid this is
// about 24 seconds (the paper reports 22 s; the difference is their use of
// the imaged 185 km scene length rather than the full row pitch, and does
// not change any conclusion — both are swamped by the 98 s filter time of
// Figure 5).
func (g Grid) FramePeriod(e orbit.Elements) time.Duration {
	return time.Duration(float64(e.DraconiticPeriod()) / float64(g.rows))
}

// Coverage tracks which scenes have been observed. The zero value is not
// useful; use NewCoverage.
type Coverage struct {
	grid Grid
	seen []bool
	n    int
}

// NewCoverage returns an empty coverage set over g.
func NewCoverage(g Grid) *Coverage {
	return &Coverage{grid: g, seen: make([]bool, g.TotalScenes())}
}

// Mark records that s was observed and reports whether it was new.
func (c *Coverage) Mark(s Scene) bool {
	i := c.grid.Index(s)
	if c.seen[i] {
		return false
	}
	c.seen[i] = true
	c.n++
	return true
}

// Seen reports whether s has been observed.
func (c *Coverage) Seen(s Scene) bool { return c.seen[c.grid.Index(s)] }

// Count returns the number of distinct scenes observed.
func (c *Coverage) Count() int { return c.n }

// Complete reports whether every scene in the grid has been observed.
func (c *Coverage) Complete() bool { return c.n == c.grid.TotalScenes() }

// PathsCovered returns the number of paths with at least one observed scene.
func (c *Coverage) PathsCovered() int {
	covered := 0
	for p := 0; p < c.grid.paths; p++ {
		for r := 0; r < c.grid.rows; r++ {
			if c.seen[p*c.grid.rows+r] {
				covered++
				break
			}
		}
	}
	return covered
}
