// Package imagery synthesizes the geospatial image data the reproduction
// trains and evaluates on. The paper uses the Sentinel-2 cloud-mask
// catalogue (48% high-value / 52% cloudy pixels, per-tile label vectors,
// per-pixel truth masks); we generate a deterministic synthetic equivalent
// with the same statistical structure:
//
//   - a world of geography classes (ocean, forest, desert, tundra, urban)
//     laid out by large-scale value noise and latitude;
//   - spatially correlated cloud fields whose prevalence depends on the
//     geography, so that tile-level cloudiness is strongly bimodal (tiles
//     sit inside or outside weather systems) — the property context-based
//     elision exploits;
//   - per-pixel "spectral" feature channels derived from geography and
//     cloud opacity with context-dependent confounders (deserts and snowy
//     tundra are nearly as bright as cloud tops), so a single global
//     classifier must trade off contexts against each other while
//     context-specialized classifiers need not — the property model
//     specialization exploits;
//   - decimation blur applied to the feature channels (not the truth),
//     so coarser tilings mislabel cloud-boundary pixels — the property
//     frame tiling trades against execution time.
//
// Everything is a pure function of (world seed, region), so datasets are
// reproducible and tiles can be re-rendered at any tiling or resolution.
package imagery

import (
	"fmt"
	"math"
	"sync"

	"kodan/internal/xrand"
)

// GeoClass is a coarse geography class — the paper's human-recognizable
// expert contexts (Section 3.2).
type GeoClass int

// Geography classes.
const (
	Ocean GeoClass = iota
	Forest
	Desert
	Tundra
	Urban
	NumGeoClasses
)

// String implements fmt.Stringer.
func (g GeoClass) String() string {
	switch g {
	case Ocean:
		return "ocean"
	case Forest:
		return "forest"
	case Desert:
		return "desert"
	case Tundra:
		return "tundra"
	case Urban:
		return "urban"
	default:
		return fmt.Sprintf("geo(%d)", int(g))
	}
}

// Feature channel indices. The channels are abstractions of multispectral
// products: broadband brightness, visible whiteness, thermal, local
// texture, and near-infrared.
const (
	ChBrightness = iota
	ChWhiteness
	ChThermal
	ChTexture
	ChNIR
	NumFeatures
)

// Region is a square window of the world, in degrees of longitude/latitude.
// Frames and tiles are Regions; tiles are produced by splitting a frame.
type Region struct {
	// LonDeg, LatDeg locate the region's lower-left corner.
	LonDeg, LatDeg float64
	// SizeDeg is the side length in degrees.
	SizeDeg float64
}

// Split divides the region into perSide x perSide sub-regions, row-major.
func (r Region) Split(perSide int) []Region {
	if perSide <= 0 {
		panic("imagery: non-positive split")
	}
	out := make([]Region, 0, perSide*perSide)
	s := r.SizeDeg / float64(perSide)
	for i := 0; i < perSide; i++ {
		for j := 0; j < perSide; j++ {
			out = append(out, Region{
				LonDeg:  r.LonDeg + float64(j)*s,
				LatDeg:  r.LatDeg + float64(i)*s,
				SizeDeg: s,
			})
		}
	}
	return out
}

// Tile is a rendered image tile: what the satellite's frame-splitting step
// hands to the analysis application.
type Tile struct {
	// Res is the side length in pixels.
	Res int
	// Features holds NumFeatures channels of Res*Res values in [0, ~1].
	Features [][]float64
	// Truth marks high-value (cloud-free) pixels. This is the per-pixel
	// ground truth mask of the reference dataset.
	Truth []bool
	// GeoFracs is the fraction of pixels in each geography class.
	GeoFracs [NumGeoClasses]float64
	// Dominant is the majority geography class.
	Dominant GeoClass
	// CloudFrac is the fraction of cloudy (low-value) pixels.
	CloudFrac float64
	// Region records where the tile came from.
	Region Region
	// summary caches the Summary descriptor for tiles built by the
	// package's own renderers; see cacheSummary.
	summary []float64
}

// HighValueFrac returns the fraction of high-value pixels (1 - CloudFrac).
func (t *Tile) HighValueFrac() float64 { return 1 - t.CloudFrac }

// Pixels returns Res*Res.
func (t *Tile) Pixels() int { return t.Res * t.Res }

// FeatureAt returns the feature vector of pixel p (length NumFeatures).
func (t *Tile) FeatureAt(p int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, NumFeatures)
	}
	for c := 0; c < NumFeatures; c++ {
		dst[c] = t.Features[c][p]
	}
	return dst
}

// LabelVector returns the training-time label vector used to cluster the
// representative dataset into contexts: the geography fractions followed by
// the cloud fraction. This mirrors the paper's "label vectors indicating
// the geographic and weather features present in each sample".
func (t *Tile) LabelVector() []float64 {
	v := make([]float64, NumGeoClasses+1)
	copy(v, t.GeoFracs[:])
	v[NumGeoClasses] = t.CloudFrac
	return v
}

// Summary returns the runtime-observable tile descriptor: per-channel mean
// and standard deviation of the feature channels. The context engine
// classifies tiles from this vector; it contains nothing derived from the
// truth mask. Tiles built by RenderTile return a precomputed cache — treat
// the result as read-only. Hand-constructed tiles compute a fresh
// descriptor on every call.
func (t *Tile) Summary() []float64 {
	if t.summary != nil {
		return t.summary
	}
	return t.computeSummary()
}

// cacheSummary precomputes the Summary descriptor so later calls are
// allocation-free. Call it once after the feature channels are final.
// Safe only before the tile is shared across goroutines.
func (t *Tile) cacheSummary() {
	t.summary = t.computeSummary()
}

func (t *Tile) computeSummary() []float64 {
	out := make([]float64, 2*NumFeatures)
	n := float64(t.Pixels())
	for c := 0; c < NumFeatures; c++ {
		var sum, sumSq float64
		for _, v := range t.Features[c] {
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := math.Max(0, sumSq/n-mean*mean)
		out[2*c] = mean
		out[2*c+1] = math.Sqrt(variance)
	}
	return out
}

// World generates tiles. The zero value is unusable; use NewWorld.
type World struct {
	seed uint64
}

// NewWorld returns a world generator with the given seed. Two worlds with
// the same seed render identical tiles.
func NewWorld(seed uint64) *World { return &World{seed: seed} }

// Noise field scales, in degrees.
const (
	continentScale = 28.0 // continents and oceans
	drynessScale   = 14.0 // desert belts
	urbanScale     = 2.2  // urban patches
	weatherScale   = 2.8  // cloud systems
	cloudEdgeWidth = 0.16 // soft cloud-boundary width in noise units
)

// geoParams hold the per-class feature signature: the clean-ground value of
// each channel. Clouds pull every channel toward the cloud signature.
// Desert and tundra brightness/whiteness sit deliberately close to the
// cloud signature: those are the contexts where a global model loses
// precision and specialization wins (Section 5.3's mechanism).
var geoParams = [NumGeoClasses][NumFeatures]float64{
	Ocean:  {0.10, 0.14, 0.55, 0.15, 0.06},
	Forest: {0.26, 0.22, 0.60, 0.34, 0.64},
	Desert: {0.80, 0.74, 0.82, 0.25, 0.58},
	Tundra: {0.80, 0.74, 0.16, 0.20, 0.45},
	Urban:  {0.50, 0.46, 0.68, 0.44, 0.38},
}

// cloudSignature is the feature vector of an opaque cloud top.
var cloudSignature = [NumFeatures]float64{0.88, 0.85, 0.12, 0.18, 0.72}

// cloudThreshold is the per-class weather-noise threshold above which a
// pixel is cloudy. Lower thresholds mean cloudier skies. Values are
// calibrated so the world-wide pixel value split is ~48% high-value / 52%
// cloudy, matching the paper's Sentinel dataset, with near-pure contexts
// at the extremes (overcast ocean, clear desert) for elision to exploit.
var cloudThreshold = [NumGeoClasses]float64{
	Ocean:  0.492,
	Forest: 0.568,
	Desert: 0.655,
	Tundra: 0.498,
	Urban:  0.570,
}

// noiseAmp is the per-channel radiance noise standard deviation over clear
// ground.
const noiseAmp = 0.115

// cloudNoiseBoost scales the extra radiance variability of cloudy pixels:
// cloud tops are textured, layered, and lit at varying angles, so their
// radiance scatters far more than clear ground. The asymmetry pushes a
// capacity-limited global classifier's errors toward false positives
// (cloud mistaken for ground) — the error mode that pollutes a saturated
// downlink and that context specialization repairs (Section 5.3).
const cloudNoiseBoost = 1.1

// geoAt returns the geography class at a world coordinate.
func (w *World) geoAt(lon, lat float64) GeoClass {
	cont := fbm(lon/continentScale, lat/continentScale, w.seed^0xc0417, 3)
	if cont < 0.46 {
		return Ocean
	}
	urban := fbm(lon/urbanScale, lat/urbanScale, w.seed^0x06ba1, 2)
	if urban > 0.78 {
		return Urban
	}
	// Cold regions: high latitude, with a noisy treeline.
	coldness := math.Abs(lat)/90 + 0.2*(fbm(lon/drynessScale, lat/drynessScale, w.seed^0x7e111, 2)-0.5)
	if coldness > 0.62 {
		return Tundra
	}
	dry := fbm(lon/drynessScale, lat/drynessScale, w.seed^0xd2e57, 3)
	if dry > 0.63 {
		return Desert
	}
	return Forest
}

// cloudNoiseAt returns the raw weather field in [0, 1].
func (w *World) cloudNoiseAt(lon, lat float64) float64 {
	return fbm(lon/weatherScale, lat/weatherScale, w.seed^0x57086, 4)
}

// opacityRamp is the width of the weather-noise interval over which cloud
// opacity climbs from 0 to 1. A wide ramp means most cloudy pixels are
// semi-transparent — their radiance is a mixture of cloud and ground — which
// is what makes real cloud masking hard (thin cirrus, haze, cloud edges).
const opacityRamp = 0.55

// Scattered-cumulus field: a small-scale cloud component present in every
// air mass, independent of the large weather systems. It caps the purity
// of "clear" contexts at ~90-93% high-value, so elision without filtering
// always leaks a little low-value data — the reason Kodan's selection
// logic still runs specialized models on mixed contexts instead of
// degenerating to pure triage.
const (
	cumulusScale     = 0.30  // degrees
	cumulusThreshold = 0.693 // coverage ~9% of pixels
	cumulusRamp      = 0.10  // sharp cumulus edges
)

// cloudOpacityAt returns the soft cloud opacity in [0, 1] at a coordinate;
// opacity > 0.5 is labeled cloudy in the truth mask. The opacity is the
// larger of the synoptic-system component (thresholded per geography) and
// the scattered-cumulus component.
func (w *World) cloudOpacityAt(lon, lat float64, g GeoClass) float64 {
	v := w.cloudNoiseAt(lon, lat)
	o := clamp01(0.5 + (v-cloudThreshold[g])/opacityRamp)
	cum := fbm(lon/cumulusScale, lat/cumulusScale, w.seed^0xcc001, 3)
	oc := clamp01(0.5 + (cum-cumulusThreshold)/cumulusRamp)
	if oc > o {
		return oc
	}
	return o
}

// clamp01 clamps to [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// RenderTile renders the tile covering reg at res x res pixels. blurPx is
// the decimation blur radius in output pixels: the box-blur applied to the
// feature channels to model the detail lost when a large ground footprint
// is decimated to the model input size (Figure 6). The truth mask is never
// blurred — it is the hi-resolution reference label.
func (w *World) RenderTile(reg Region, res int, blurPx float64) *Tile {
	if res <= 0 {
		panic("imagery: non-positive resolution")
	}
	t := &Tile{Res: res, Region: reg}
	n := res * res
	t.Features = make([][]float64, NumFeatures)
	for c := range t.Features {
		t.Features[c] = make([]float64, n)
	}
	t.Truth = make([]bool, n)

	// Deterministic per-tile sensor noise: seeded by the world seed and the
	// quantized region coordinates, so rendering is order-independent.
	rng := xrand.New(w.seed ^ regionKey(reg))

	sc := renderPool.Get().(*renderScratch)
	defer renderPool.Put(sc)
	sc.grow(res)
	opacity, lons, rows := sc.opacity, sc.lons, sc.rows

	step := reg.SizeDeg / float64(res)
	var geoCounts [NumGeoClasses]int
	cloudy := 0
	for j := range lons {
		lons[j] = reg.LonDeg + (float64(j)+0.5)*step
	}
	for i := 0; i < res; i++ {
		lat := reg.LatDeg + (float64(i)+0.5)*step
		w.fillRow(rows, lons, lat)
		for j := 0; j < res; j++ {
			p := i*res + j
			g := w.geoFromRow(rows, j, lat)
			geoCounts[g]++
			op := w.opacityFromRow(rows, j, g)
			opacity[p] = op
			if op > 0.5 {
				t.Truth[p] = false
				cloudy++
			} else {
				t.Truth[p] = true
			}
			for c := 0; c < NumFeatures; c++ {
				clean := geoParams[g][c]
				t.Features[c][p] = clean + op*(cloudSignature[c]-clean)
			}
		}
	}

	// Decimation blur acts on the scene radiance (optics happen before the
	// detector), then per-sample sensor noise is added. Ordering matters:
	// blurring after noise would average the noise away and make coarse
	// tilings easier, the opposite of the physical effect.
	if blurPx > 0 {
		for c := range t.Features {
			boxBlur(t.Features[c], res, blurPx, &sc.blur)
		}
	}
	for p := 0; p < n; p++ {
		sigma := noiseAmp * (1 + cloudNoiseBoost*opacity[p])
		for c := 0; c < NumFeatures; c++ {
			t.Features[c][p] += rng.Norm(0, sigma)
		}
	}

	t.CloudFrac = float64(cloudy) / float64(n)
	best := 0
	for g := range geoCounts {
		t.GeoFracs[g] = float64(geoCounts[g]) / float64(n)
		if geoCounts[g] > geoCounts[best] {
			best = g
		}
	}
	t.Dominant = GeoClass(best)
	t.cacheSummary()
	return t
}

// regionKey hashes a region to a stable seed component.
func regionKey(r Region) uint64 {
	q := func(v float64) uint64 { return uint64(int64(math.Round(v * 1e4))) }
	h := q(r.LonDeg)*0x9e3779b97f4a7c15 ^ q(r.LatDeg)*0xbf58476d1ce4e5b9 ^ q(r.SizeDeg)*0x94d049bb133111eb
	h ^= h >> 29
	return h
}

// boxBlur applies a separable box blur of the given (possibly fractional)
// radius to a res x res channel in place. A fractional radius blends the
// blur at floor(radius) and floor(radius)+1.
func boxBlur(ch []float64, res int, radius float64, s *blurScratch) {
	r0 := int(radius)
	frac := radius - float64(r0)
	if r0 > 0 {
		boxBlurInt(ch, res, r0, s)
	}
	if frac > 1e-9 {
		wide := s.frac[:len(ch)]
		copy(wide, ch)
		boxBlurInt(wide, res, r0+1, s)
		for i := range ch {
			ch[i] = (1-frac)*ch[i] + frac*wide[i]
		}
	}
}

// boxBlurInt applies a separable integer-radius box blur in place, using
// s.tmp, s.col and s.outCol as working space.
func boxBlurInt(ch []float64, res, radius int, s *blurScratch) {
	if radius <= 0 {
		return
	}
	tmp, col, outCol := s.tmp[:len(ch)], s.col[:res], s.outCol[:res]
	// Horizontal pass.
	for i := 0; i < res; i++ {
		row := ch[i*res : (i+1)*res]
		out := tmp[i*res : (i+1)*res]
		blurLine(row, out, radius)
	}
	// Vertical pass (via strided lines).
	for j := 0; j < res; j++ {
		for i := 0; i < res; i++ {
			col[i] = tmp[i*res+j]
		}
		blurLine(col, outCol, radius)
		for i := 0; i < res; i++ {
			ch[i*res+j] = outCol[i]
		}
	}
}

// blurLine writes the box-blur of src into dst with edge clamping.
func blurLine(src, dst []float64, radius int) {
	n := len(src)
	for i := 0; i < n; i++ {
		lo, hi := i-radius, i+radius
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		var sum float64
		for k := lo; k <= hi; k++ {
			sum += src[k]
		}
		dst[i] = sum / float64(hi-lo+1)
	}
}

// rowScratch holds the per-row noise buffers of one RenderTile call: the
// evolving x coordinates and the six field rows a scanline needs.
type rowScratch struct {
	xs                                       []float64
	cont, urban, tree, dry, weather, cumulus []float64
}

// blurScratch holds boxBlur's working space for a res x res channel: the
// horizontal-pass raster, the wider blur of a fractional radius, and one
// column pair for the vertical pass. Every buffer is fully written before
// it is read, so reuse across channels and tiles cannot change a value.
type blurScratch struct {
	tmp, frac, col, outCol []float64
}

func newBlurScratch(res int) blurScratch {
	n := res * res
	backing := make([]float64, 2*n+2*res)
	return blurScratch{
		tmp:    backing[:n],
		frac:   backing[n : 2*n],
		col:    backing[2*n : 2*n+res],
		outCol: backing[2*n+res:],
	}
}

// renderScratch holds RenderTile's per-call working buffers (the opacity
// raster, scanline longitudes, noise rows and blur space). They are pooled
// so a render allocates only the tile it returns; every buffer is fully
// overwritten on each call, so reuse is bit-identical to fresh buffers.
type renderScratch struct {
	res           int
	opacity, lons []float64
	rows          *rowScratch
	blur          blurScratch
}

// renderPool recycles render scratch across tiles and goroutines.
var renderPool = sync.Pool{New: func() any { return new(renderScratch) }}

// grow sizes the scratch for res x res tiles, reallocating only when the
// resolution changes.
func (s *renderScratch) grow(res int) {
	if s.res == res {
		return
	}
	s.res = res
	s.opacity = make([]float64, res*res)
	s.lons = make([]float64, res)
	s.rows = newRowScratch(res)
	s.blur = newBlurScratch(res)
}

func newRowScratch(res int) *rowScratch {
	backing := make([]float64, 7*res)
	s := &rowScratch{}
	for i, dst := range []*[]float64{&s.xs, &s.cont, &s.urban, &s.tree, &s.dry, &s.weather, &s.cumulus} {
		*dst = backing[i*res : (i+1)*res]
	}
	return s
}

// rowFBM writes fbm(lon/scale, lat/scale, seed, octaves) for every lon in
// lons into dst, sharing one scanline's lattice hashes: within an octave
// the y lattice row is fixed and consecutive x samples usually stay inside
// one cell, so the four corner hashes are fetched once per cell instead of
// once per pixel. Every arithmetic expression matches fbm/vnoise exactly —
// hash2 is pure, so reusing its values is bit-identical to recomputing
// them (pinned by TestRowFBMMatchesFBM).
func rowFBM(dst, xs, lons []float64, lat, scale float64, seed uint64, octaves int) {
	for j, lon := range lons {
		xs[j] = lon / scale
		dst[j] = 0
	}
	y := lat / scale
	var norm float64
	amp := 1.0
	for o := 0; o < octaves; o++ {
		s := seed + uint64(o)*0x9e37
		fy := math.Floor(y)
		iy := int64(fy)
		ty := smoothstep(y - fy)
		haveCell := false
		var lastIx int64
		var v00, v10, v01, v11 float64
		for j, x := range xs {
			fx := math.Floor(x)
			ix := int64(fx)
			if !haveCell || ix != lastIx {
				v00 = hash2(ix, iy, s)
				v10 = hash2(ix+1, iy, s)
				v01 = hash2(ix, iy+1, s)
				v11 = hash2(ix+1, iy+1, s)
				lastIx, haveCell = ix, true
			}
			tx := smoothstep(x - fx)
			a := v00 + (v10-v00)*tx
			b := v01 + (v11-v01)*tx
			dst[j] += amp * (a + (b-a)*ty)
		}
		norm += amp
		for j, x := range xs {
			xs[j] = x*2 + 13.7
		}
		y = y*2 + 7.3
		amp *= 0.5
	}
	for j := range dst {
		dst[j] /= norm
	}
}

// fillRow evaluates the world's noise fields for one scanline. The
// classification below mirrors geoAt/cloudOpacityAt exactly; the row path
// merely precomputes every field a pixel might consult (geoAt's
// short-circuits skip some), and unused values cannot affect the output.
func (w *World) fillRow(s *rowScratch, lons []float64, lat float64) {
	rowFBM(s.cont, s.xs, lons, lat, continentScale, w.seed^0xc0417, 3)
	rowFBM(s.urban, s.xs, lons, lat, urbanScale, w.seed^0x06ba1, 2)
	rowFBM(s.tree, s.xs, lons, lat, drynessScale, w.seed^0x7e111, 2)
	rowFBM(s.dry, s.xs, lons, lat, drynessScale, w.seed^0xd2e57, 3)
	rowFBM(s.weather, s.xs, lons, lat, weatherScale, w.seed^0x57086, 4)
	rowFBM(s.cumulus, s.xs, lons, lat, cumulusScale, w.seed^0xcc001, 3)
}

// geoFromRow is geoAt over precomputed row fields (same branch structure).
func (w *World) geoFromRow(s *rowScratch, j int, lat float64) GeoClass {
	if s.cont[j] < 0.46 {
		return Ocean
	}
	if s.urban[j] > 0.78 {
		return Urban
	}
	coldness := math.Abs(lat)/90 + 0.2*(s.tree[j]-0.5)
	if coldness > 0.62 {
		return Tundra
	}
	if s.dry[j] > 0.63 {
		return Desert
	}
	return Forest
}

// opacityFromRow is cloudOpacityAt over precomputed row fields.
func (w *World) opacityFromRow(s *rowScratch, j int, g GeoClass) float64 {
	o := clamp01(0.5 + (s.weather[j]-cloudThreshold[g])/opacityRamp)
	oc := clamp01(0.5 + (s.cumulus[j]-cumulusThreshold)/cumulusRamp)
	if oc > o {
		return oc
	}
	return o
}

// smoothstep clamps x to [0,1] and applies 3x^2-2x^3 smoothing.
func smoothstep(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return x * x * (3 - 2*x)
}

// hash2 returns a deterministic value in [0,1) for an integer lattice point.
func hash2(ix, iy int64, seed uint64) float64 {
	h := seed
	h ^= uint64(ix) * 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h ^= uint64(iy) * 0x94d049bb133111eb
	h = (h ^ (h >> 27)) * 0x2545f4914f6cdd1d
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// vnoise is smooth value noise: bilinear interpolation of lattice hashes
// with smoothstep easing. Output in [0, 1).
func vnoise(x, y float64, seed uint64) float64 {
	fx, fy := math.Floor(x), math.Floor(y)
	ix, iy := int64(fx), int64(fy)
	tx, ty := smoothstep(x-fx), smoothstep(y-fy)
	v00 := hash2(ix, iy, seed)
	v10 := hash2(ix+1, iy, seed)
	v01 := hash2(ix, iy+1, seed)
	v11 := hash2(ix+1, iy+1, seed)
	a := v00 + (v10-v00)*tx
	b := v01 + (v11-v01)*tx
	return a + (b-a)*ty
}

// fbm is fractal value noise: octaves of vnoise at doubling frequency and
// halving amplitude, normalized to [0, 1).
func fbm(x, y float64, seed uint64, octaves int) float64 {
	var sum, amp, norm float64
	amp = 1
	for o := 0; o < octaves; o++ {
		sum += amp * vnoise(x, y, seed+uint64(o)*0x9e37)
		norm += amp
		x, y = x*2+13.7, y*2+7.3
		amp *= 0.5
	}
	return sum / norm
}
