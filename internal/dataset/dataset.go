// Package dataset assembles the representative reference dataset the
// one-time transformation step runs on (Section 4): frames sampled across
// the world, split into tiles at a chosen tiling, with truth masks and
// label vectors, plus train/validation splitting.
// The paper uses the Sentinel-2 cloud-mask catalogue; our frames come from
// the synthetic world in internal/imagery (see DESIGN.md for why the
// substitution preserves the relevant structure).
package dataset

import (
	"context"
	"fmt"
	"math"
	"slices"

	"kodan/internal/imagery"
	"kodan/internal/parallel"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// ModelInputPx is the neural-network input resolution in the paper's frame
// geometry (1K x 1K for a 10K x 10K frame).
const ModelInputPx = 1000

// FramePx is the native frame resolution the paper's example uses.
const FramePx = 10000

// frameSizeDeg is the frame footprint side in degrees (~1.45 for a 161 km
// Landsat row pitch).
const frameSizeDeg = 1.45

// Config describes dataset generation.
type Config struct {
	// Seed drives the world generator and sampling. Same seed, same data.
	Seed uint64
	// Frames is the number of frames to sample.
	Frames int
	// Tiling is the per-frame tile layout.
	Tiling tiling.Tiling
	// TileRes is the rendered tile resolution in pixels per side. This is
	// the model-input raster, scaled down from the paper's 1000 px for
	// tractability; decimation blur is computed against the paper's true
	// geometry, so the quality effects are preserved.
	TileRes int
	// MaxLatDeg bounds the sampled frame latitudes.
	MaxLatDeg float64
	// Workers bounds the parallelism of frame rendering: 0 uses
	// GOMAXPROCS, 1 forces the sequential path. The samples are
	// bit-identical at every worker count.
	Workers int
}

// DefaultConfig returns a configuration sized for the reproduction's
// transformation step: 240 frames at the given tiling.
func DefaultConfig(seed uint64, t tiling.Tiling) Config {
	return Config{
		Seed:      seed,
		Frames:    240,
		Tiling:    t,
		TileRes:   24,
		MaxLatDeg: 70,
	}
}

// validate rejects unusable configurations.
func (c Config) validate() error {
	if c.Frames <= 0 {
		return fmt.Errorf("dataset: non-positive frame count %d", c.Frames)
	}
	if c.TileRes <= 1 {
		return fmt.Errorf("dataset: tile resolution %d too small", c.TileRes)
	}
	return c.Tiling.Validate()
}

// Sample is one tile of the representative dataset.
type Sample struct {
	// Tile is the rendered tile.
	Tile *imagery.Tile
	// Frame is the index of the frame this tile came from.
	Frame int
}

// Dataset is a set of samples plus the configuration that produced them.
type Dataset struct {
	Config  Config
	Samples []Sample
}

// Generate renders the dataset. Frame centers are scattered by a
// golden-angle sequence (deterministic, near-uniform) over the latitude
// band; each frame is split by the configured tiling and every tile is
// rendered with the tiling's decimation blur. Frames render on
// cfg.Workers goroutines and are concatenated in frame order (frame f's
// tile k lands at f*Tiles()+k); the world is immutable and every tile
// seeds its noise from its own region, so the samples do not depend on
// the worker count.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w := imagery.NewWorld(cfg.Seed)
	blur := cfg.Tiling.RenderBlurPx(FramePx, ModelInputPx)

	const golden = 137.50776405003785
	// The loop body never fails and the context never cancels, so Map
	// always returns every frame.
	frames, _ := parallel.Map(context.TODO(), parallel.Workers(cfg.Workers), cfg.Frames, func(_ context.Context, f int) ([]Sample, error) {
		lon := math.Mod(float64(f)*golden, 360) - 180
		// Low-discrepancy latitude scatter over the band.
		lat := -cfg.MaxLatDeg + math.Mod(float64(f)*0.6180339887498949, 1)*2*cfg.MaxLatDeg
		frame := imagery.Region{
			LonDeg:  lon,
			LatDeg:  lat - frameSizeDeg/2,
			SizeDeg: frameSizeDeg,
		}
		tiles := frame.Split(cfg.Tiling.PerSide)
		samples := make([]Sample, len(tiles))
		for k, reg := range tiles {
			samples[k] = Sample{
				Tile:  w.RenderTile(reg, cfg.TileRes, blur),
				Frame: f,
			}
		}
		return samples, nil
	})
	return &Dataset{Config: cfg, Samples: slices.Concat(frames...)}, nil
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Samples) }

// CloudFrac returns the pixel-weighted cloudy fraction of the dataset.
func (d *Dataset) CloudFrac() float64 {
	var cloudy, total float64
	for _, s := range d.Samples {
		cloudy += s.Tile.CloudFrac * float64(s.Tile.Pixels())
		total += float64(s.Tile.Pixels())
	}
	if total == 0 {
		return 0
	}
	return cloudy / total
}

// LabelVectors returns the per-sample label vectors for clustering.
func (d *Dataset) LabelVectors() [][]float64 {
	out := make([][]float64, d.Len())
	for i, s := range d.Samples {
		out[i] = s.Tile.LabelVector()
	}
	return out
}

// Split partitions the dataset into train and validation subsets by frame
// (all tiles of a frame stay together, so validation frames are truly
// unseen). valFrac is the approximate validation fraction.
func (d *Dataset) Split(valFrac float64, rng *xrand.Rand) (train, val *Dataset) {
	if valFrac < 0 || valFrac >= 1 {
		panic("dataset: valFrac outside [0,1)")
	}
	frames := map[int]bool{}
	for _, s := range d.Samples {
		frames[s.Frame] = true
	}
	ids := make([]int, 0, len(frames))
	for id := range frames {
		ids = append(ids, id)
	}
	// Map iteration order is random; sort for determinism.
	sortInts(ids)
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	nVal := int(float64(len(ids)) * valFrac)
	valSet := map[int]bool{}
	for _, id := range ids[:nVal] {
		valSet[id] = true
	}
	train = &Dataset{Config: d.Config}
	val = &Dataset{Config: d.Config}
	for _, s := range d.Samples {
		if valSet[s.Frame] {
			val.Samples = append(val.Samples, s)
		} else {
			train.Samples = append(train.Samples, s)
		}
	}
	return train, val
}

// sortInts is insertion sort — id lists are small and this avoids pulling
// sort into the hot path dependencies.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
