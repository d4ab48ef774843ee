// Package sense models the Earth-observation payload: the camera (frame
// geometry, spectral bands, quantization, compression), the frame capture
// cadence along the ground track, and the frame deadline — the interval in
// which an orbital-edge application must finish processing one frame before
// the next enters the sensor view (Section 2 of the paper).
package sense

import (
	"fmt"
	"time"

	"kodan/internal/orbit"
	"kodan/internal/wrs"
)

// Camera describes an imaging payload.
type Camera struct {
	// Name identifies the payload in ledgers.
	Name string
	// FramePx is the frame side length in pixels (frames are square; the
	// paper's example is a 10,000 x 10,000 px Landsat frame).
	FramePx int
	// Bands is the number of spectral bands.
	Bands int
	// BitsPerSample is the quantization depth per band sample.
	BitsPerSample int
	// Compression is the compressed-size fraction in (0, 1]; 1 means no
	// compression.
	Compression float64
	// GSDm is the ground sample distance in meters per pixel.
	GSDm float64
}

// Validate reports whether the camera is physically meaningful.
func (c Camera) Validate() error {
	switch {
	case c.FramePx <= 0:
		return fmt.Errorf("sense: non-positive frame size %d", c.FramePx)
	case c.Bands <= 0:
		return fmt.Errorf("sense: non-positive band count %d", c.Bands)
	case c.BitsPerSample <= 0:
		return fmt.Errorf("sense: non-positive bit depth %d", c.BitsPerSample)
	case c.Compression <= 0 || c.Compression > 1:
		return fmt.Errorf("sense: compression %f outside (0,1]", c.Compression)
	case c.GSDm <= 0:
		return fmt.Errorf("sense: non-positive GSD %f", c.GSDm)
	}
	return nil
}

// FrameBits returns the downlink cost of one compressed frame in bits.
func (c Camera) FrameBits() float64 {
	px := float64(c.FramePx) * float64(c.FramePx)
	return px * float64(c.Bands) * float64(c.BitsPerSample) * c.Compression
}

// FrameWidthM returns the ground extent of one frame side in meters.
func (c Camera) FrameWidthM() float64 { return float64(c.FramePx) * c.GSDm }

// Landsat8MS returns a multispectral payload calibrated to the Landsat 8
// regime the paper models: 10K x 10K px frames, 11 bands, 12-bit samples,
// ~2:1 compression — about 7 Gbit (~0.9 GB) per frame. At the Landsat
// ground segment's 384 Mbit/s this yields a daily downlink capacity of
// roughly 750 frames against ~3600 observed, reproducing the ~21% bent-pipe
// delivery fraction of Figure 4.
func Landsat8MS() Camera {
	return Camera{
		Name:          "landsat8-ms",
		FramePx:       10000,
		Bands:         11,
		BitsPerSample: 12,
		Compression:   0.606,
		GSDm:          16.2, // 10K px spanning one 162 km row pitch
	}
}

// Landsat8Hyper returns the hyperspectral variant used in the paper's
// Figure 2 accounting ("hyperspectral, 10K image frames"), whose ~70 Gbit
// frames limit a lone satellite to about five downlinked frames per orbit
// revolution (2% of observations).
func Landsat8Hyper() Camera {
	c := Landsat8MS()
	c.Name = "landsat8-hyper"
	c.Bands = 75
	return c
}

// Capture is one frame capture event.
type Capture struct {
	// Time is the capture instant (the midpoint of the frame's dwell).
	Time time.Time
	// Scene is the WRS grid cell the frame covers.
	Scene wrs.Scene
	// Sat is the index of the capturing satellite within its constellation
	// (0 for single-satellite runs; assigned by callers that fan out).
	Sat int
}

// Imager binds a camera to an orbit and a reference grid and generates the
// capture schedule.
type Imager struct {
	Camera Camera
	Orbit  orbit.Elements
	Grid   wrs.Grid
}

// NewImager returns an imager after validating its configuration.
func NewImager(c Camera, e orbit.Elements, g wrs.Grid) (Imager, error) {
	if err := c.Validate(); err != nil {
		return Imager{}, err
	}
	if err := e.Validate(); err != nil {
		return Imager{}, err
	}
	return Imager{Camera: c, Orbit: e, Grid: g}, nil
}

// FrameDeadline returns the frame period for this orbit and grid: the time
// between successive frame captures, which is also the processing deadline
// for continuous ground-track coverage.
func (im Imager) FrameDeadline() time.Duration {
	return im.Grid.FramePeriod(im.Orbit)
}

// Captures returns the frames captured during [start, start+span), in time
// order. Frames are aligned to row boundaries (ascending-node crossings) so
// that each capture maps to a stable grid scene.
func (im Imager) Captures(start time.Time, span time.Duration) []Capture {
	p := orbit.NewPropagator(im.Orbit)
	fp := im.FrameDeadline()
	end := start.Add(span)
	// Align to the row boundary at or before start.
	node := wrs.AscendingNodeTime(&p, start)
	sinceNode := start.Sub(node)
	k := sinceNode / fp
	t := node.Add(k * fp)
	if t.Before(start) {
		t = t.Add(fp)
	}
	if !t.Before(end) {
		return nil
	}
	caps := make([]Capture, 0, (end.Sub(t)+fp-1)/fp)
	for ; t.Before(end); t = t.Add(fp) {
		mid := t.Add(fp / 2)
		caps = append(caps, Capture{Time: mid, Scene: im.Grid.SceneAt(&p, mid)})
	}
	return caps
}

// FramesPerDay returns the average number of frames captured per solar day.
func (im Imager) FramesPerDay() float64 {
	return 86400 / im.FrameDeadline().Seconds()
}
