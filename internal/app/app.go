// Package app implements the paper's seven geospatial analysis
// applications (Table 1): pixel-segmentation cloud filters built on
// semantic-segmentation backbones of increasing cost. Each application is
// reproduced as a genuinely trained per-pixel classifier over the synthetic
// feature channels, with two architecture-derived quality knobs:
//
//   - capacity (hidden layout): larger backbones fit more expressive
//     decision boundaries;
//   - effective receptive field: architectures that rely on wide context
//     (HRNet, UPerNet) degrade when tiles shrink below their field,
//     reproducing the per-architecture tiling optima of Figure 13;
//
// and one measured quantity imported verbatim from the paper: the per-tile
// execution time on each hardware target (Table 1), which cannot be
// re-measured without the physical devices.
//
// Per Section 3.3, a reference (generic) model is trained on the whole
// representative dataset and specialized models are trained per context;
// quality is then measured per (application, tiling, context) as confusion
// rates over held-out validation frames. Those rates are what the selection
// logic and the deployment simulations consume.
package app

import (
	"context"
	"fmt"
	"sync"

	"kodan/internal/ctxengine"
	"kodan/internal/dataset"
	"kodan/internal/hw"
	"kodan/internal/imagery"
	"kodan/internal/nn"
	"kodan/internal/telemetry"
	"kodan/internal/tiling"
	"kodan/internal/xrand"
)

// Architecture describes one of the seven applications.
type Architecture struct {
	// Index is the 1-based application number used in the paper's figures.
	Index int
	// Name is the model-zoo architecture from Table 1.
	Name string
	// PerTileMs is the measured per-tile latency on each hardware target,
	// indexed by hw.Target, copied from Table 1.
	PerTileMs [hw.NumTargets]float64
	// Hidden is the stand-in classifier's hidden layout (capacity).
	Hidden []int
	// NoiseFloor is extra per-pixel feature noise modeling backbone
	// quality: weaker backbones extract noisier representations.
	NoiseFloor float64
	// RFDeg is the effective receptive field in degrees of ground extent;
	// tiles smaller than this starve the model of context.
	RFDeg float64
	// RFNoise is the added feature noise at full receptive-field starvation.
	RFNoise float64
}

// String implements fmt.Stringer.
func (a Architecture) String() string { return fmt.Sprintf("App %d (%s)", a.Index, a.Name) }

// Apps returns the seven applications with Table 1's measured latencies
// (columns: 1070 Ti, i7-7800, Orin 15W).
func Apps() []Architecture {
	return []Architecture{
		{Index: 1, Name: "mobilenetv2dilated-c1-deepsup", PerTileMs: [hw.NumTargets]float64{178.2, 440.6, 618.8},
			Hidden: []int{10}, NoiseFloor: 0.050, RFDeg: 0.11, RFNoise: 0.05},
		{Index: 2, Name: "resnet18dilated-ppm-deepsup", PerTileMs: [hw.NumTargets]float64{237.6, 940.6, 935.6},
			Hidden: []int{3}, NoiseFloor: 0.095, RFDeg: 0.16, RFNoise: 0.05},
		{Index: 3, Name: "hrnetv2-c1", PerTileMs: [hw.NumTargets]float64{321.8, 1292, 1515},
			Hidden: []int{12}, NoiseFloor: 0.050, RFDeg: 0.42, RFNoise: 0.13},
		{Index: 4, Name: "resnet50dilated-ppm-deepsup", PerTileMs: [hw.NumTargets]float64{361.4, 1787, 1594},
			Hidden: []int{14}, NoiseFloor: 0.044, RFDeg: 0.20, RFNoise: 0.05},
		{Index: 5, Name: "resnet50-upernet", PerTileMs: [hw.NumTargets]float64{410.9, 2124, 1797},
			Hidden: []int{14}, NoiseFloor: 0.038, RFDeg: 0.36, RFNoise: 0.09},
		{Index: 6, Name: "resnet101-upernet", PerTileMs: [hw.NumTargets]float64{445.5, 2307, 1970},
			Hidden: []int{16}, NoiseFloor: 0.033, RFDeg: 0.36, RFNoise: 0.09},
		{Index: 7, Name: "resnet101dilated-ppm-deepsup", PerTileMs: [hw.NumTargets]float64{475.2, 2545, 2040},
			Hidden: []int{16}, NoiseFloor: 0.027, RFDeg: 0.26, RFNoise: 0.05},
	}
}

// App returns the architecture with the given 1-based index.
func App(index int) Architecture {
	apps := Apps()
	if index < 1 || index > len(apps) {
		panic(fmt.Sprintf("app: no application %d", index))
	}
	return apps[index-1]
}

// rfPenalty returns the receptive-field noise for a tile of the given
// ground extent.
func (a Architecture) rfPenalty(tileSizeDeg float64) float64 {
	if tileSizeDeg >= a.RFDeg {
		return 0
	}
	return a.RFNoise * (1 - tileSizeDeg/a.RFDeg)
}

// inputDim is the pixel-classifier input dimension: the per-pixel feature
// channels. Deliberately no tile-level context inputs — the paper's
// reference applications are per-pixel segmentation heads whose inability
// to condition on geospatial context is exactly what model specialization
// exploits (Section 3.3).
const inputDim = imagery.NumFeatures

// Model is one trained pixel classifier.
type Model struct {
	// Arch is the architecture this model instantiates.
	Arch Architecture
	// Context is the engine context it is specialized to, or -1 for the
	// generic (reference) model.
	Context int
	net     *nn.Net
	// qnet is the int8 twin derived post-training when the suite was built
	// with TrainOptions.Quantized; predictions then run the integer path.
	qnet *nn.QuantizedNet
}

// Quantized reports whether this model predicts through the int8 path.
func (m *Model) Quantized() bool { return m.qnet != nil }

// TrainOptions control suite construction.
type TrainOptions struct {
	// PixelsPerTile is the number of training pixels sampled per tile.
	PixelsPerTile int
	// EvalPixelsPerTile is the number of validation pixels per tile.
	EvalPixelsPerTile int
	// Train is the per-model training configuration.
	Train nn.TrainConfig
	// Quantized derives an int8 quantized twin of every trained model
	// (nn.Quantize) and runs all suite predictions — quality measurement
	// included — through it, so the measured confusions price the
	// quantization error into the selection logic. Training itself stays
	// float; the same RNG stream is consumed either way.
	Quantized bool
}

// quantCalibSamples caps the activation-calibration sample Quantize sees:
// the first rows of the model's own training set, enough to bound the
// per-layer activation range without re-walking the full split.
const quantCalibSamples = 256

// DefaultTrainOptions returns options sized for the transformation step.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		PixelsPerTile:     32,
		EvalPixelsPerTile: 48,
		Train:             nn.TrainConfig{Epochs: 6, BatchSize: 32, LearnRate: 0.06, Momentum: 0.9},
	}
}

// inputSigma is the architecture's per-pixel input noise on tile t: its
// noise floor plus the receptive-field penalty of the tile's ground
// extent. It is constant across a tile, so callers compute it once per
// tile and pass it to buildInput.
func (a Architecture) inputSigma(t *imagery.Tile) float64 {
	return a.NoiseFloor + a.rfPenalty(t.Region.SizeDeg)
}

// buildInput assembles the model input for pixel p of a tile into dst,
// adding the architecture's noise (standard deviation sigma, see
// inputSigma) from rng.
func buildInput(t *imagery.Tile, p int, sigma float64, rng *xrand.Rand, dst []float64) {
	for c := 0; c < imagery.NumFeatures; c++ {
		dst[c] = t.Features[c][p] + rng.Norm(0, sigma)
	}
}

// trainModel fits one classifier on the given tiles. ctx is checked
// between training epochs; on cancellation the partially trained model is
// discarded and ctx.Err() returned.
func trainModel(ctx context.Context, a Architecture, contextIdx int, tiles []*imagery.Tile, opts TrainOptions, rng *xrand.Rand) (*Model, error) {
	// Size the sample up front so the inputs live in one flat backing
	// array: one allocation instead of one per sample, and sequential
	// training reads.
	total := 0
	for _, t := range tiles {
		n := opts.PixelsPerTile
		if n > t.Pixels() {
			n = t.Pixels()
		}
		total += n
	}
	xs := make([][]float64, 0, total)
	ys := make([]float64, 0, total)
	flat := make([]float64, total*inputDim)
	sampleRng := rng.Split()
	for _, t := range tiles {
		n := opts.PixelsPerTile
		if n > t.Pixels() {
			n = t.Pixels()
		}
		sigma := a.inputSigma(t)
		for i := 0; i < n; i++ {
			p := sampleRng.Intn(t.Pixels())
			in := flat[len(xs)*inputDim : (len(xs)+1)*inputDim]
			buildInput(t, p, sigma, sampleRng, in)
			xs = append(xs, in)
			y := 0.0
			if t.Truth[p] {
				y = 1
			}
			ys = append(ys, y)
		}
	}
	net := nn.NewBinary(inputDim, a.Hidden, rng.Split())
	if len(xs) > 0 {
		if _, err := net.FitCtx(ctx, xs, ys, opts.Train, rng.Split()); err != nil {
			return nil, err
		}
	}
	m := &Model{Arch: a, Context: contextIdx, net: net}
	if opts.Quantized {
		calib := xs
		if len(calib) > quantCalibSamples {
			calib = calib[:quantCalibSamples]
		}
		m.qnet = net.Quantize(calib)
	}
	return m, nil
}

// predictScratch carries the reusable buffers of one batched tile
// prediction: the flat input block, its per-row views, the probability
// outputs, and the sampled pixel indices.
type predictScratch struct {
	flat  []float64
	xs    [][]float64
	probs []float64
	pix   []int
}

// predictPool recycles prediction scratch across tiles and models (the
// input dimension is a package constant), so steady-state tile traversal
// allocates nothing.
var predictPool = sync.Pool{New: func() interface{} { return new(predictScratch) }}

// grow ensures capacity for n rows.
func (s *predictScratch) grow(n int) {
	if cap(s.probs) >= n {
		return
	}
	s.flat = make([]float64, n*inputDim)
	s.xs = make([][]float64, n)
	for i := range s.xs {
		s.xs[i] = s.flat[i*inputDim : (i+1)*inputDim]
	}
	s.probs = make([]float64, n)
	s.pix = make([]int, n)
}

// predictBatch routes a prepared input batch through the model's active
// inference path (float, or int8 when quantized).
func (m *Model) predictBatch(xs [][]float64, out []float64) {
	if m.qnet != nil {
		m.qnet.PredictBatch(xs, out)
		return
	}
	m.net.PredictBatch(xs, out)
}

// PredictTile classifies every pixel of a tile, returning the predicted
// high-value mask and the confusion against truth. rng supplies the
// architecture noise draw (pass a deterministic stream).
func (m *Model) PredictTile(t *imagery.Tile, rng *xrand.Rand) ([]bool, nn.Confusion) {
	mask := make([]bool, t.Pixels())
	return mask, m.PredictTileInto(t, rng, mask)
}

// PredictTileInto is PredictTile writing into a caller-owned mask with at
// least t.Pixels() elements: inputs for the whole tile are staged in
// pooled buffers and predicted as one batch, so steady-state calls
// allocate nothing. The noise draws, predictions, and confusion are
// identical to the per-pixel path.
func (m *Model) PredictTileInto(t *imagery.Tile, rng *xrand.Rand, mask []bool) nn.Confusion {
	n := t.Pixels()
	s := predictPool.Get().(*predictScratch)
	s.grow(n)
	sigma := m.Arch.inputSigma(t)
	for p := 0; p < n; p++ {
		buildInput(t, p, sigma, rng, s.xs[p])
	}
	m.predictBatch(s.xs[:n], s.probs)
	var c nn.Confusion
	for p := 0; p < n; p++ {
		pred := s.probs[p] > 0.5
		mask[p] = pred
		c.Add(pred, t.Truth[p])
	}
	predictPool.Put(s)
	return c
}

// evalModel measures a model's confusion over sampled pixels of the tiles,
// one batched prediction per tile.
func evalModel(m *Model, tiles []*imagery.Tile, perTile int, rng *xrand.Rand) nn.Confusion {
	var c nn.Confusion
	s := predictPool.Get().(*predictScratch)
	s.grow(perTile)
	for _, t := range tiles {
		n := perTile
		if n > t.Pixels() {
			n = t.Pixels()
		}
		sigma := m.Arch.inputSigma(t)
		for i := 0; i < n; i++ {
			p := rng.Intn(t.Pixels())
			s.pix[i] = p
			buildInput(t, p, sigma, rng, s.xs[i])
		}
		m.predictBatch(s.xs[:n], s.probs)
		for i := 0; i < n; i++ {
			c.Add(s.probs[i] > 0.5, t.Truth[s.pix[i]])
		}
	}
	predictPool.Put(s)
	return c
}

// Quality is the measured confusion table of one (application, tiling)
// pair: per context and overall, for the generic, single-context
// specialized, and multi-context (merged) specialized models.
type Quality struct {
	App     int
	Tiling  tiling.Tiling
	K       int
	Generic []nn.Confusion // indexed by context
	Special []nn.Confusion // indexed by context
	Merged  []nn.Confusion // indexed by context (its group's model)
	// GenericAll and SpecialAll aggregate over contexts.
	GenericAll nn.Confusion
	SpecialAll nn.Confusion
}

// Suite is everything the transformation step produces for one
// (application, tiling): trained models plus measured quality. Following
// Section 3.3, models are specialized both to single contexts (Special)
// and across multiple contexts (Merged: one model per dominant-geography
// group, indexed by context) — merged models trade specialization
// sharpness for more training data, and the selection logic considers
// both.
type Suite struct {
	Arch    Architecture
	Tiling  tiling.Tiling
	Generic *Model
	Special []*Model // indexed by context
	Merged  []*Model // indexed by context; contexts in a group share a model
	Quality Quality
}

// SuiteData is the tiling-level training input of a suite build, prepared
// once and shared across applications: running the context engine over
// every tile is application-independent, so a workspace sweeping seven
// applications per tiling labels each tiling once instead of seven times.
type SuiteData struct {
	// Train is the training split.
	Train *dataset.Dataset
	// Val is the validation split.
	Val *dataset.Dataset
	// TrainLabels and ValLabels are the engine's context labels for the
	// corresponding splits.
	TrainLabels []int
	ValLabels   []int
}

// PrepareSuiteData labels a split pair for repeated BuildSuiteData calls.
func PrepareSuiteData(train, val *dataset.Dataset, ctx *ctxengine.Set) SuiteData {
	return SuiteData{
		Train:       train,
		Val:         val,
		TrainLabels: ctx.LabelAll(train),
		ValLabels:   ctx.LabelAll(val),
	}
}

// BuildSuiteData trains the generic and per-context specialized models for
// one application at one tiling and measures their validation quality per
// context. data holds the labeled train and val splits of that tiling (see
// PrepareSuiteData); ctx supplies the context partition (its engine labels
// both splits, matching the paper's use of engine output as ground truth).
// cc is checked between model trainings (and, via nn.FitCtx, between
// epochs); a run that completes is bit-identical whatever cc carries.
func BuildSuiteData(cc context.Context, a Architecture, tl tiling.Tiling, data SuiteData, ctx *ctxengine.Set, opts TrainOptions, rng *xrand.Rand) (*Suite, error) {
	if opts.PixelsPerTile <= 0 {
		opts = DefaultTrainOptions()
	}
	// The two stages get their own spans so trace diffs can attribute a
	// float-vs-quantized delta to inference rather than training. The
	// variant attributes label what changed between two compared runs.
	tctx, trainSpan := telemetry.StartSpan(cc, "nn.train")
	defer trainSpan.End() // idempotent: covers the error returns below
	trainSpan.Set("app", fmt.Sprint(a.Index))
	trainSpan.Set("quantized", fmt.Sprint(opts.Quantized))

	trainData := data.Train
	trainLabels := data.TrainLabels
	val := data.Val
	valLabels := data.ValLabels

	allTiles := make([]*imagery.Tile, trainData.Len())
	byCtx := make([][]*imagery.Tile, ctx.K)
	for i, s := range trainData.Samples {
		allTiles[i] = s.Tile
		c := trainLabels[i]
		byCtx[c] = append(byCtx[c], s.Tile)
	}

	suite := &Suite{Arch: a, Tiling: tl}
	var err error
	suite.Generic, err = trainModel(tctx, a, -1, allTiles, opts, rng.Split())
	if err != nil {
		return nil, err
	}
	suite.Special = make([]*Model, ctx.K)
	for c := 0; c < ctx.K; c++ {
		tiles := byCtx[c]
		if len(tiles) == 0 {
			// No training data for the context: fall back to the generic
			// model (the selection logic will treat them identically).
			suite.Special[c] = suite.Generic
			continue
		}
		suite.Special[c], err = trainModel(tctx, a, c, tiles, opts, rng.Split())
		if err != nil {
			return nil, err
		}
	}

	// Multi-context models: one per dominant-geography group. Contexts
	// that share terrain share a merged model trained on their union.
	suite.Merged = make([]*Model, ctx.K)
	var groups [imagery.NumGeoClasses][]int
	for c := 0; c < ctx.K; c++ {
		g := ctx.Stats[c].DominantGeo
		groups[g] = append(groups[g], c)
	}
	for _, members := range groups {
		if len(members) == 0 {
			continue
		}
		var tiles []*imagery.Tile
		for _, c := range members {
			tiles = append(tiles, byCtx[c]...)
		}
		var m *Model
		if len(tiles) == 0 {
			m = suite.Generic
		} else {
			m, err = trainModel(tctx, a, members[0], tiles, opts, rng.Split())
			if err != nil {
				return nil, err
			}
		}
		for _, c := range members {
			suite.Merged[c] = m
		}
	}

	trainSpan.End()

	// Measure validation quality per context.
	if err := cc.Err(); err != nil {
		return nil, err
	}
	_, inferSpan := telemetry.StartSpan(cc, "nn.infer")
	defer inferSpan.End()
	inferSpan.Set("app", fmt.Sprint(a.Index))
	inferSpan.Set("quantized", fmt.Sprint(opts.Quantized))
	q := Quality{App: a.Index, Tiling: tl, K: ctx.K,
		Generic: make([]nn.Confusion, ctx.K),
		Special: make([]nn.Confusion, ctx.K),
		Merged:  make([]nn.Confusion, ctx.K),
	}
	valByCtx := make([][]*imagery.Tile, ctx.K)
	for i, s := range val.Samples {
		valByCtx[valLabels[i]] = append(valByCtx[valLabels[i]], s.Tile)
	}
	for c := 0; c < ctx.K; c++ {
		if len(valByCtx[c]) == 0 {
			continue
		}
		q.Generic[c] = evalModel(suite.Generic, valByCtx[c], opts.EvalPixelsPerTile, rng.Split())
		q.Special[c] = evalModel(suite.Special[c], valByCtx[c], opts.EvalPixelsPerTile, rng.Split())
		q.Merged[c] = evalModel(suite.Merged[c], valByCtx[c], opts.EvalPixelsPerTile, rng.Split())
		q.GenericAll.Merge(q.Generic[c])
		q.SpecialAll.Merge(q.Special[c])
	}
	suite.Quality = q
	return suite, nil
}
