// Package nn is a small, dependency-free neural-network library: dense
// feed-forward networks with ReLU hidden layers, sigmoid or softmax heads,
// stochastic gradient descent with momentum, and classification metrics.
// It stands in for the paper's PyTorch-based model-zoo training (Section 4)
// at the scale this reproduction needs: pixel-level cloud classifiers and
// the tile-level context engine. Initialization and shuffling draw from
// deterministic xrand streams, so training is reproducible.
package nn

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"kodan/internal/telemetry"
	"kodan/internal/xrand"
)

// Activation selects a layer nonlinearity.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	ReLU
	Sigmoid
)

// layer is one dense layer: out = act(W*in + b).
type layer struct {
	in, out int
	act     Activation
	w       []float64 // out x in, row-major
	b       []float64
	// Gradient accumulators and momentum buffers.
	gw, gb []float64
	mw, mb []float64
}

func newLayer(in, out int, act Activation, rng *xrand.Rand) *layer {
	l := &layer{
		in: in, out: out, act: act,
		w:  make([]float64, in*out),
		b:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
		mw: make([]float64, in*out),
		mb: make([]float64, out),
	}
	// He initialization for ReLU, Xavier otherwise.
	scale := math.Sqrt(2 / float64(in))
	if act != ReLU {
		scale = math.Sqrt(1 / float64(in))
	}
	for i := range l.w {
		l.w[i] = rng.Norm(0, scale)
	}
	return l
}

// forward computes the layer output and caches pre-activations in preact.
func (l *layer) forward(in, out, preact []float64) {
	in = in[:l.in]
	relu := l.act == ReLU
	for o := 0; o < l.out; o++ {
		sum := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		x := in[:len(row)] // provably equal lengths: elides the per-element bounds check
		// Unrolled strictly in index order, so the accumulation is
		// bit-identical to the plain loop.
		i := 0
		for ; i+4 <= len(row); i += 4 {
			sum += row[i] * x[i]
			sum += row[i+1] * x[i+1]
			sum += row[i+2] * x[i+2]
			sum += row[i+3] * x[i+3]
		}
		for ; i < len(row); i++ {
			sum += row[i] * x[i]
		}
		preact[o] = sum
		// ReLU (every hidden layer) is applied inline; the per-output
		// dispatch only remains for the small head layers.
		if relu {
			if sum < 0 {
				sum = 0
			}
			out[o] = sum
		} else {
			out[o] = activate(sum, l.act)
		}
	}
}

// backward consumes dOut (gradient wrt layer output), accumulates weight
// gradients, and writes the gradient wrt the layer input into dIn. out is
// the layer's forward output for the same pass: sigmoid layers derive
// their gradient from it (s*(1-s)) instead of re-evaluating the Exp, which
// is bit-identical because out holds exactly activate(preact). A nil dIn
// skips the input-gradient accumulation — the first layer's input gradient
// is never consumed, so the caller elides roughly half its backward work.
func (l *layer) backward(in, out, preact, dOut, dIn []float64) {
	in = in[:l.in]
	for i := range dIn {
		dIn[i] = 0
	}
	for o := 0; o < l.out; o++ {
		g := dOut[o]
		switch l.act {
		case Sigmoid:
			g *= out[o] * (1 - out[o])
		case ReLU:
			if preact[o] < 0 {
				// Multiply rather than assign zero: bit-identical to the
				// activateGrad path even for non-finite upstream gradients.
				g *= 0
			}
		case Linear:
		default:
			g *= activateGrad(preact[o], l.act)
		}
		l.gb[o] += g
		grow := l.gw[o*l.in : (o+1)*l.in]
		if dIn == nil {
			x := in[:len(grow)]
			i := 0
			for ; i+4 <= len(grow); i += 4 {
				grow[i] += g * x[i]
				grow[i+1] += g * x[i+1]
				grow[i+2] += g * x[i+2]
				grow[i+3] += g * x[i+3]
			}
			for ; i < len(grow); i++ {
				grow[i] += g * x[i]
			}
			continue
		}
		row := l.w[o*l.in : (o+1)*l.in][:len(in)]
		grow = grow[:len(in)]
		d := dIn[:len(in)]
		for i, v := range in {
			grow[i] += g * v
			d[i] += g * row[i]
		}
	}
}

// step applies accumulated gradients with SGD + momentum and clears them.
func (l *layer) step(lr, momentum float64, batch int) {
	inv := 1 / float64(batch)
	for i := range l.w {
		l.mw[i] = momentum*l.mw[i] - lr*l.gw[i]*inv
		l.w[i] += l.mw[i]
		l.gw[i] = 0
	}
	for i := range l.b {
		l.mb[i] = momentum*l.mb[i] - lr*l.gb[i]*inv
		l.b[i] += l.mb[i]
		l.gb[i] = 0
	}
}

func activate(x float64, a Activation) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

func activateGrad(pre float64, a Activation) float64 {
	switch a {
	case ReLU:
		if pre < 0 {
			return 0
		}
		return 1
	case Sigmoid:
		s := 1 / (1 + math.Exp(-pre))
		return s * (1 - s)
	default:
		return 1
	}
}

// Net is a feed-forward network. Build one with NewClassifier or
// NewBinary; the zero value is unusable.
//
// Concurrency: prediction (Predict, PredictBinary, PredictClass) is safe
// for concurrent use — each call borrows forward buffers from an internal
// pool. Training (FitCtx) mutates the weights and dedicated
// gradient/activation state and must not run concurrently with anything
// else on the same Net.
type Net struct {
	layers []*layer
	// train holds the dedicated training scratch (activations are needed
	// across the forward/backward pair, so FitCtx cannot share the pool).
	train *scratch
	// predict pools forward-only scratch for concurrent prediction.
	predict sync.Pool
	softmax bool
}

// scratch holds per-call activation buffers for one forward (and, for the
// training scratch, backward) pass.
type scratch struct {
	acts    [][]float64
	preacts [][]float64
	deltas  [][]float64
	// dOut is the output-gradient seed buffer for accumulate, hoisted here
	// so a training pass allocates nothing.
	dOut []float64
}

// NewBinary returns a binary classifier: inputs -> hidden ReLU layers ->
// one sigmoid output interpreted as P(positive). hidden may be empty for
// logistic regression.
func NewBinary(inputs int, hidden []int, rng *xrand.Rand) *Net {
	sizes := append([]int{inputs}, hidden...)
	n := &Net{}
	for i := 0; i+1 < len(sizes); i++ {
		n.layers = append(n.layers, newLayer(sizes[i], sizes[i+1], ReLU, rng))
	}
	n.layers = append(n.layers, newLayer(sizes[len(sizes)-1], 1, Sigmoid, rng))
	n.initScratch(inputs)
	return n
}

// NewClassifier returns a multiclass classifier: inputs -> hidden ReLU
// layers -> classes linear outputs with a softmax applied by Predict.
func NewClassifier(inputs int, hidden []int, classes int, rng *xrand.Rand) *Net {
	if classes < 2 {
		panic("nn: classifier needs >= 2 classes")
	}
	sizes := append([]int{inputs}, hidden...)
	n := &Net{softmax: true}
	for i := 0; i+1 < len(sizes); i++ {
		n.layers = append(n.layers, newLayer(sizes[i], sizes[i+1], ReLU, rng))
	}
	n.layers = append(n.layers, newLayer(sizes[len(sizes)-1], classes, Linear, rng))
	n.initScratch(inputs)
	return n
}

func (n *Net) initScratch(inputs int) {
	n.train = n.newScratch()
	n.predict.New = func() interface{} { return n.newScratch() }
}

func (n *Net) newScratch() *scratch {
	s := &scratch{}
	s.acts = append(s.acts, make([]float64, n.layers[0].in))
	for _, l := range n.layers {
		s.acts = append(s.acts, make([]float64, l.out))
		s.preacts = append(s.preacts, make([]float64, l.out))
		s.deltas = append(s.deltas, make([]float64, l.in))
	}
	s.dOut = make([]float64, n.layers[len(n.layers)-1].out)
	return s
}

// Inputs returns the network's input dimension.
func (n *Net) Inputs() int { return n.layers[0].in }

// Outputs returns the network's output dimension.
func (n *Net) Outputs() int { return n.layers[len(n.layers)-1].out }

// Params returns the total number of weights and biases — a proxy for the
// model's computational cost class.
func (n *Net) Params() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.w) + len(l.b)
	}
	return total
}

// forward runs the network using the given scratch; the final activation
// vector (owned by the scratch) is returned. When x already has the input
// dimension it feeds the first layer directly; otherwise it goes through
// the scratch's input buffer, preserving the historical tolerant behavior
// (truncate long inputs, leave short ones padded by the buffer).
func (n *Net) forward(s *scratch, x []float64) []float64 {
	in := x
	if len(x) != n.layers[0].in {
		copy(s.acts[0], x)
		in = s.acts[0]
	}
	for i, l := range n.layers {
		l.forward(in, s.acts[i+1], s.preacts[i])
		in = s.acts[i+1]
	}
	out := s.acts[len(s.acts)-1]
	if n.softmax {
		softmaxInPlace(out)
	}
	return out
}

// Predict returns the output for input x: a 1-element probability for
// binary nets, or a probability distribution over classes.
func (n *Net) Predict(x []float64) []float64 {
	if len(x) != n.Inputs() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), n.Inputs()))
	}
	s := n.predict.Get().(*scratch)
	out := n.forward(s, x)
	res := make([]float64, len(out))
	copy(res, out)
	n.predict.Put(s)
	return res
}

// PredictBinary returns P(positive) for a binary network.
func (n *Net) PredictBinary(x []float64) float64 {
	if n.Outputs() != 1 {
		panic("nn: PredictBinary on non-binary net")
	}
	s := n.predict.Get().(*scratch)
	p := n.forward(s, x)[0]
	n.predict.Put(s)
	return p
}

// PredictBatch writes P(positive) for each input row xs[i] into out[i],
// borrowing one scratch for the whole batch — the cache-friendly bulk
// entry point for tile traversal. out must have at least len(xs) elements.
// Each out[i] is bit-identical to PredictBinary(xs[i]); steady-state calls
// allocate nothing.
func (n *Net) PredictBatch(xs [][]float64, out []float64) {
	if n.Outputs() != 1 {
		panic("nn: PredictBatch on non-binary net")
	}
	if len(out) < len(xs) {
		panic(fmt.Sprintf("nn: PredictBatch output size %d, want >= %d", len(out), len(xs)))
	}
	s := n.predict.Get().(*scratch)
	for i, x := range xs {
		out[i] = n.forward(s, x)[0]
	}
	n.predict.Put(s)
}

// PredictClass returns the argmax class for a classifier.
func (n *Net) PredictClass(x []float64) int {
	s := n.predict.Get().(*scratch)
	out := n.forward(s, x)
	best := 0
	for i, v := range out {
		if v > out[best] {
			best = i
		}
	}
	n.predict.Put(s)
	return best
}

func softmaxInPlace(v []float64) {
	maxV := v[0]
	for _, x := range v[1:] {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i := range v {
		v[i] = math.Exp(v[i] - maxV)
		sum += v[i]
	}
	for i := range v {
		v[i] /= sum
	}
}

// accumulate runs one forward/backward pass. For binary nets target is
// {0,1} in target[0]; for classifiers target is a class index in target[0].
// Both use the cross-entropy gradient, which for sigmoid and softmax heads
// reduces to (p - y) at the final pre-activation.
func (n *Net) accumulate(x []float64, target float64, withLoss bool) float64 {
	if !n.softmax && len(n.layers) == 2 &&
		n.layers[0].act == ReLU && n.layers[1].act == Sigmoid && n.layers[1].out == 1 {
		return n.accumulateBinary2(x, target, withLoss)
	}
	s := n.train
	out := n.forward(s, x)
	last := len(n.layers) - 1
	dOut := s.dOut
	var loss float64
	if n.softmax {
		cls := int(target)
		for i := range dOut {
			y := 0.0
			if i == cls {
				y = 1
			}
			// Softmax+CE gradient wrt pre-activation is p-y; our backward
			// multiplies by activateGrad(Linear)=1, so feed p-y directly.
			dOut[i] = out[i] - y
		}
		if withLoss {
			loss = -math.Log(math.Max(out[int(target)], 1e-12))
		}
	} else {
		p := out[0]
		y := target
		// Sigmoid+BCE: gradient wrt pre-activation is p-y. backward will
		// multiply by sigmoid'(pre) = p*(1-p) (p is the forward output of
		// the same pre-activation, so this is the same float), so divide
		// it out here.
		g := p * (1 - p)
		if g < 1e-12 {
			g = 1e-12
		}
		dOut[0] = (p - y) / g
		if withLoss {
			loss = -y*math.Log(math.Max(p, 1e-12)) - (1-y)*math.Log(math.Max(1-p, 1e-12))
		}
	}

	// The first layer's input gradient has no consumer, so its backward
	// runs with a nil dIn. Its input is x itself unless forward had to
	// stage the input through the scratch buffer.
	in0 := x
	if len(x) != n.layers[0].in {
		in0 = s.acts[0]
	}
	for i := last; i > 0; i-- {
		n.layers[i].backward(s.acts[i], s.acts[i+1], s.preacts[i], dOut, s.deltas[i])
		dOut = s.deltas[i]
	}
	n.layers[0].backward(in0, s.acts[1], s.preacts[0], dOut, nil)
	return loss
}

// accumulateBinary2 is accumulate specialized for the reproduction's
// dominant network shape: one ReLU hidden layer feeding a single sigmoid
// output. Fusing the forward and backward passes into one function removes
// the per-layer method calls and activation dispatch from the training hot
// loop. Every floating-point operation runs in exactly the order of the
// generic path, so training stays bit-identical (the committed experiment
// goldens pin this).
func (n *Net) accumulateBinary2(x []float64, target float64, withLoss bool) float64 {
	s := n.train
	l0, l1 := n.layers[0], n.layers[1]

	in := x
	if len(x) != l0.in {
		copy(s.acts[0], x)
		in = s.acts[0]
	}
	in = in[:l0.in]

	// Forward: hidden ReLU layer.
	h := s.acts[1]
	ph := s.preacts[0]
	for o := 0; o < l0.out; o++ {
		sum := l0.b[o]
		row := l0.w[o*l0.in : (o+1)*l0.in]
		xx := in[:len(row)]
		i := 0
		for ; i+4 <= len(row); i += 4 {
			sum += row[i] * xx[i]
			sum += row[i+1] * xx[i+1]
			sum += row[i+2] * xx[i+2]
			sum += row[i+3] * xx[i+3]
		}
		for ; i < len(row); i++ {
			sum += row[i] * xx[i]
		}
		ph[o] = sum
		if sum < 0 {
			sum = 0
		}
		h[o] = sum
	}

	// Forward: sigmoid head.
	hin := h[:l1.in]
	sum := l1.b[0]
	{
		row := l1.w[:l1.in]
		xx := hin[:len(row)]
		i := 0
		for ; i+4 <= len(row); i += 4 {
			sum += row[i] * xx[i]
			sum += row[i+1] * xx[i+1]
			sum += row[i+2] * xx[i+2]
			sum += row[i+3] * xx[i+3]
		}
		for ; i < len(row); i++ {
			sum += row[i] * xx[i]
		}
	}
	s.preacts[1][0] = sum
	p := 1 / (1 + math.Exp(-sum))
	s.acts[2][0] = p

	var loss float64
	y := target
	g := p * (1 - p)
	if g < 1e-12 {
		g = 1e-12
	}
	dOut := (p - y) / g
	if withLoss {
		loss = -y*math.Log(math.Max(p, 1e-12)) - (1-y)*math.Log(math.Max(1-p, 1e-12))
	}

	// Backward: head. The sigmoid gradient comes from the forward output,
	// exactly as layer.backward derives it.
	d := s.deltas[1]
	for i := range d {
		d[i] = 0
	}
	gh := dOut * (p * (1 - p))
	l1.gb[0] += gh
	{
		grow := l1.gw[:l1.in][:len(hin)]
		row := l1.w[:l1.in][:len(hin)]
		dd := d[:len(hin)]
		for i, v := range hin {
			grow[i] += gh * v
			dd[i] += gh * row[i]
		}
	}

	// Backward: hidden layer; its input gradient has no consumer.
	for o := 0; o < l0.out; o++ {
		g := d[o]
		if ph[o] < 0 {
			// Multiply rather than assign zero: bit-identical to the
			// activateGrad path even for non-finite upstream gradients.
			g *= 0
		}
		l0.gb[o] += g
		grow := l0.gw[o*l0.in : (o+1)*l0.in]
		xx := in[:len(grow)]
		i := 0
		for ; i+4 <= len(grow); i += 4 {
			grow[i] += g * xx[i]
			grow[i+1] += g * xx[i+1]
			grow[i+2] += g * xx[i+2]
			grow[i+3] += g * xx[i+3]
		}
		for ; i < len(grow); i++ {
			grow[i] += g * xx[i]
		}
	}
	return loss
}

// TrainConfig controls FitCtx.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LearnRate float64
	Momentum  float64
}

// DefaultTrain returns a configuration adequate for the reproduction's
// classifiers: 6 epochs of minibatch SGD with momentum.
func DefaultTrain() TrainConfig {
	return TrainConfig{Epochs: 6, BatchSize: 32, LearnRate: 0.1, Momentum: 0.9}
}

// FitCtx trains the network on (xs, ys) and returns the mean loss of the
// final epoch. For binary nets ys hold {0,1}; for classifiers ys hold class
// indices. Shuffling draws from rng, so training is deterministic.
//
// ctx is checked between epochs, and ctx.Err() is returned promptly if the
// context is done. A run that completes all epochs is bit-identical
// whatever ctx carries; a cancelled run leaves the network partially
// trained and should be discarded.
//
// When ctx carries a telemetry probe, each completed fit records its wall
// time into the nn.fit_seconds histogram plus epoch/sample counters — the
// per-stage training accounting the transform-timing reports aggregate.
// Training itself never reads telemetry state, so results are unaffected.
func (n *Net) FitCtx(ctx context.Context, xs [][]float64, ys []float64, cfg TrainConfig, rng *xrand.Rand) (float64, error) {
	if len(xs) != len(ys) {
		panic("nn: len(xs) != len(ys)")
	}
	if len(xs) == 0 {
		return 0, nil
	}
	if scope := telemetry.ProbeFrom(ctx).Metrics.Scope("nn"); scope != nil {
		start := time.Now()
		defer func() {
			scope.Histogram("fit_seconds").Observe(time.Since(start).Seconds())
			scope.Counter("fits").Inc()
			scope.Counter("epochs").Add(int64(cfg.Epochs))
			scope.Counter("samples").Add(int64(cfg.Epochs) * int64(len(xs)))
		}()
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	var lastLoss float64
	apply := func(batch int) {
		for _, l := range n.layers {
			l.step(cfg.LearnRate, cfg.Momentum, batch)
		}
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		if err := ctx.Err(); err != nil {
			return lastLoss, err
		}
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		// Only the final epoch's mean loss is reported, so earlier epochs
		// skip the cross-entropy terms; gradients are loss-independent.
		withLoss := ep == cfg.Epochs-1
		var epochLoss float64
		batch := 0
		for _, i := range idx {
			epochLoss += n.accumulate(xs[i], ys[i], withLoss)
			batch++
			if batch == cfg.BatchSize {
				apply(batch)
				batch = 0
			}
		}
		if batch > 0 {
			apply(batch)
		}
		lastLoss = epochLoss / float64(len(xs))
	}
	return lastLoss, nil
}
