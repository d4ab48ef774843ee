// Package ctxengine implements Kodan's geospatial contexts and the context
// engine (Section 3.2). A context is a subset of tiles related by semantic
// similarity; the engine is a small classifier that assigns a context to
// each tile at runtime from observable tile statistics only.
//
// Two context sources are implemented, as in the paper:
//
//   - Expert contexts: the human-recognizable geography classes (ocean,
//     forest, desert, tundra, urban).
//   - Automatic contexts: k-means clustering of the training tiles' label
//     vectors (geography fractions + cloud fraction), sweeping cluster
//     count and distance metric, scored by silhouette.
//
// Following the paper, the deployed engine's output is treated as ground
// truth: after training the engine, the representative dataset is
// re-partitioned by engine output, and that partition is what downstream
// model specialization and elision statistics are computed on.
package ctxengine

import (
	"context"
	"fmt"
	"math"

	"kodan/internal/cluster"
	"kodan/internal/dataset"
	"kodan/internal/imagery"
	"kodan/internal/nn"
	"kodan/internal/xrand"
)

// Source selects how contexts are generated.
type Source int

// Context sources.
const (
	// Auto clusters label vectors (the paper's general mechanism).
	Auto Source = iota
	// Expert uses the geography classes directly.
	Expert
)

// Transform selects a label-vector preprocessing for the automatic sweep
// — the paper's "label vector transformations, including translations,
// rotations, and projections based on per-dimension covariance
// properties".
type Transform int

// Transforms.
const (
	// Standardized centers and unit-scales each dimension (translation +
	// per-dimension scaling).
	Standardized Transform = iota
	// Whitened additionally rotates onto principal axes and equalizes
	// their variances.
	Whitened
	// Raw clusters the label vectors as-is.
	Raw
)

// Config controls context generation.
type Config struct {
	// Source picks expert or automatic contexts.
	Source Source
	// Ks are the candidate cluster counts for the automatic sweep.
	Ks []int
	// Metrics are the candidate distance metrics for the automatic sweep.
	Metrics []cluster.Metric
	// Transforms are the candidate label-vector transforms for the sweep.
	Transforms []Transform
	// EngineTrain is the engine's training configuration.
	EngineTrain nn.TrainConfig
}

// engineHidden is the width of the engine classifier's one hidden layer.
const engineHidden = 16

// DefaultConfig returns the reproduction's standard context configuration:
// an automatic sweep over k in {4..8} with Euclidean and cosine metrics.
func DefaultConfig() Config {
	return Config{
		Source:      Auto,
		Ks:          []int{4, 5, 6, 7, 8},
		Metrics:     []cluster.Metric{cluster.Euclidean, cluster.Cosine},
		Transforms:  []Transform{Standardized, Whitened},
		EngineTrain: nn.TrainConfig{Epochs: 30, BatchSize: 16, LearnRate: 0.1, Momentum: 0.9},
	}
}

// Stats summarizes one context over the engine-labeled training partition.
type Stats struct {
	// Count is the number of training tiles in the context.
	Count int
	// HighValueFrac is the pixel-weighted high-value fraction — the
	// quantity the elision decision thresholds on.
	HighValueFrac float64
	// DominantGeo is the most common dominant-geography among members.
	DominantGeo imagery.GeoClass
	// Name is a human-readable label, e.g. "ocean/overcast".
	Name string
}

// Set is a generated context partition plus its trained engine.
type Set struct {
	// K is the context count.
	K int
	// Engine classifies tile summaries into contexts. Once built, the
	// engine is read-only and safe for concurrent classification (nn
	// prediction borrows per-call forward buffers).
	Engine *nn.Net
	// Labels holds the engine-assigned context of each training sample,
	// parallel to the dataset passed to Build.
	Labels []int
	// Stats holds per-context statistics over the engine partition.
	Stats []Stats
	// TrainAccuracy is the engine's agreement with the clustering (auto)
	// or geography (expert) labels on the training tiles.
	TrainAccuracy float64
	// scaler holds feature standardization for engine inputs.
	mean, std []float64
}

// Build generates contexts from the training dataset and trains the engine.
// ctx is checked between engine training epochs; a cancelled build returns
// ctx.Err().
func Build(ctx context.Context, train *dataset.Dataset, cfg Config, rng *xrand.Rand) (*Set, error) {
	if train.Len() == 0 {
		return nil, fmt.Errorf("ctxengine: empty training dataset")
	}
	var target []int
	var k int
	switch cfg.Source {
	case Expert:
		k = int(imagery.NumGeoClasses)
		target = make([]int, train.Len())
		for i, s := range train.Samples {
			target[i] = int(s.Tile.Dominant)
		}
	case Auto:
		if len(cfg.Ks) == 0 {
			cfg.Ks = DefaultConfig().Ks
		}
		if len(cfg.Metrics) == 0 {
			cfg.Metrics = DefaultConfig().Metrics
		}
		if len(cfg.Transforms) == 0 {
			cfg.Transforms = DefaultConfig().Transforms
		}
		raw := train.LabelVectors()
		bestSil := math.Inf(-1)
		var chosen *cluster.Result
		for _, tr := range cfg.Transforms {
			vecs := applyTransform(tr, raw, rng.Split())
			options, best := cluster.Sweep(vecs, cfg.Ks, cfg.Metrics, rng.Split())
			if s := options[best].Silhouette; s > bestSil {
				bestSil = s
				chosen = options[best].Result
			}
		}
		k = chosen.K
		target = chosen.Assign
	default:
		return nil, fmt.Errorf("ctxengine: unknown source %d", cfg.Source)
	}

	// Engine training data: observable summaries only.
	xs := make([][]float64, train.Len())
	ys := make([]float64, train.Len())
	for i, s := range train.Samples {
		xs[i] = s.Tile.Summary()
		ys[i] = float64(target[i])
	}
	mean, std := fitScaler(xs)
	for i := range xs {
		xs[i] = applyScaler(xs[i], mean, std)
	}

	trainCfg := cfg.EngineTrain
	if trainCfg.Epochs == 0 {
		trainCfg = DefaultConfig().EngineTrain
	}
	engine := nn.NewClassifier(len(xs[0]), []int{engineHidden}, k, rng.Split())
	if _, err := engine.FitCtx(ctx, xs, ys, trainCfg, rng.Split()); err != nil {
		return nil, err
	}

	set := &Set{K: k, Engine: engine, mean: mean, std: std}

	// Agreement with the source labels, then re-partition by engine output
	// (the engine's output is ground truth from here on).
	agree := 0
	set.Labels = make([]int, train.Len())
	for i := range xs {
		c := engine.PredictClass(xs[i])
		set.Labels[i] = c
		if c == target[i] {
			agree++
		}
	}
	set.TrainAccuracy = float64(agree) / float64(len(xs))

	set.Stats = computeStats(train, set.Labels, k)
	return set, nil
}

// Classify assigns a context to a tile at runtime. The hot path scales
// the tile summary into a stack buffer rather than through applyScaler,
// keeping steady-state classification allocation-free.
func (s *Set) Classify(t *imagery.Tile) int {
	var buf [2 * imagery.NumFeatures]float64
	sum := t.Summary()
	x := buf[:len(sum)]
	for i, v := range sum {
		x[i] = (v - s.mean[i]) / s.std[i]
	}
	return s.Engine.PredictClass(x)
}

// Contexts returns the context count; together with Classify it satisfies
// the runtime's Classifier interface.
func (s *Set) Contexts() int { return s.K }

// LabelAll classifies every sample of a dataset.
func (s *Set) LabelAll(ds *dataset.Dataset) []int {
	out := make([]int, ds.Len())
	for i, smp := range ds.Samples {
		out[i] = s.Classify(smp.Tile)
	}
	return out
}

// computeStats aggregates per-context statistics.
func computeStats(ds *dataset.Dataset, labels []int, k int) []Stats {
	stats := make([]Stats, k)
	geoCounts := make([][]int, k)
	var hv = make([]float64, k)
	var px = make([]float64, k)
	for i := range geoCounts {
		geoCounts[i] = make([]int, imagery.NumGeoClasses)
	}
	for i, s := range ds.Samples {
		c := labels[i]
		stats[c].Count++
		geoCounts[c][s.Tile.Dominant]++
		hv[c] += s.Tile.HighValueFrac() * float64(s.Tile.Pixels())
		px[c] += float64(s.Tile.Pixels())
	}
	for c := range stats {
		if px[c] > 0 {
			stats[c].HighValueFrac = hv[c] / px[c]
		}
		best := 0
		for g, n := range geoCounts[c] {
			if n > geoCounts[c][best] {
				best = g
			}
		}
		stats[c].DominantGeo = imagery.GeoClass(best)
		weather := "mixed"
		switch {
		case stats[c].HighValueFrac >= 0.7:
			weather = "clear"
		case stats[c].HighValueFrac <= 0.3:
			weather = "overcast"
		}
		stats[c].Name = fmt.Sprintf("%s/%s", stats[c].DominantGeo, weather)
	}
	return stats
}

// applyTransform preprocesses label vectors for clustering.
func applyTransform(tr Transform, vecs [][]float64, rng *xrand.Rand) [][]float64 {
	switch tr {
	case Whitened:
		return cluster.Whiten(vecs, rng)
	case Raw:
		return vecs
	default:
		return cluster.Standardize(vecs)
	}
}

// fitScaler returns per-dimension mean and std (std floored at epsilon).
func fitScaler(xs [][]float64) (mean, std []float64) {
	dim := len(xs[0])
	mean = make([]float64, dim)
	std = make([]float64, dim)
	for _, x := range xs {
		for i, v := range x {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(xs))
	}
	for _, x := range xs {
		for i, v := range x {
			d := v - mean[i]
			std[i] += d * d
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i] / float64(len(xs)))
		if std[i] < 1e-9 {
			std[i] = 1
		}
	}
	return mean, std
}

func applyScaler(x, mean, std []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = (x[i] - mean[i]) / std[i]
	}
	return out
}
