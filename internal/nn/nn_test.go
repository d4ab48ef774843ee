package nn

import (
	"math"
	"testing"
	"testing/quick"

	"kodan/internal/xrand"
)

func TestBinaryLearnsLinearlySeparable(t *testing.T) {
	rng := xrand.New(1)
	// y = 1 iff x0 + x1 > 1.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 2000; i++ {
		x := []float64{rng.Float64() * 2, rng.Float64() * 2}
		y := 0.0
		if x[0]+x[1] > 1 {
			y = 1
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	net := NewBinary(2, nil, rng) // logistic regression
	net.FitCtx(t.Context(), xs, ys, TrainConfig{Epochs: 20, BatchSize: 16, LearnRate: 0.5, Momentum: 0.9}, rng)
	var c Confusion
	for i, x := range xs {
		c.Add(net.PredictBinary(x) > 0.5, ys[i] > 0.5)
	}
	if acc := c.Accuracy(); acc < 0.97 {
		t.Fatalf("logistic accuracy = %.3f on separable data", acc)
	}
}

func TestHiddenLayerLearnsXOR(t *testing.T) {
	rng := xrand.New(3)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 3000; i++ {
		a, b := rng.Float64(), rng.Float64()
		y := 0.0
		if (a > 0.5) != (b > 0.5) {
			y = 1
		}
		xs = append(xs, []float64{a, b})
		ys = append(ys, y)
	}
	// XOR requires a hidden layer; logistic regression caps near 50%.
	net := NewBinary(2, []int{12}, rng)
	net.FitCtx(t.Context(), xs, ys, TrainConfig{Epochs: 120, BatchSize: 16, LearnRate: 0.3, Momentum: 0.9}, rng)
	var c Confusion
	for i, x := range xs {
		c.Add(net.PredictBinary(x) > 0.5, ys[i] > 0.5)
	}
	if acc := c.Accuracy(); acc < 0.9 {
		t.Fatalf("XOR accuracy = %.3f", acc)
	}
}

func TestCapacityOrdering(t *testing.T) {
	// On a nonlinear problem, a larger net must beat a logistic model —
	// the mechanism behind the Table 1 architecture quality ordering.
	rng := xrand.New(5)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 3000; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		y := 0.0
		if a*a+b*b < 0.4 {
			y = 1
		}
		xs = append(xs, []float64{a, b})
		ys = append(ys, y)
	}
	fit := func(hidden []int, seed uint64) float64 {
		r := xrand.New(seed)
		net := NewBinary(2, hidden, r)
		net.FitCtx(t.Context(), xs, ys, TrainConfig{Epochs: 40, BatchSize: 16, LearnRate: 0.3, Momentum: 0.9}, r)
		var c Confusion
		for i, x := range xs {
			c.Add(net.PredictBinary(x) > 0.5, ys[i] > 0.5)
		}
		return c.Accuracy()
	}
	small := fit(nil, 7)
	big := fit([]int{12}, 7)
	if big <= small+0.05 {
		t.Fatalf("capacity gave no benefit: small %.3f big %.3f", small, big)
	}
}

func TestClassifierLearnsQuadrants(t *testing.T) {
	rng := xrand.New(9)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 4000; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		cls := 0
		if a >= 0 && b < 0 {
			cls = 1
		} else if a < 0 && b >= 0 {
			cls = 2
		} else if a < 0 && b < 0 {
			cls = 3
		}
		xs = append(xs, []float64{a, b})
		ys = append(ys, float64(cls))
	}
	net := NewClassifier(2, []int{12}, 4, rng)
	net.FitCtx(t.Context(), xs, ys, TrainConfig{Epochs: 30, BatchSize: 16, LearnRate: 0.2, Momentum: 0.9}, rng)
	correct := 0
	for i, x := range xs {
		if net.PredictClass(x) == int(ys[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.93 {
		t.Fatalf("quadrant accuracy = %.3f", acc)
	}
}

func TestPredictProbabilitiesSumToOne(t *testing.T) {
	rng := xrand.New(2)
	net := NewClassifier(3, []int{5}, 4, rng)
	if err := quick.Check(func(a, b, c int16) bool {
		p := net.Predict([]float64{float64(a) / 1000, float64(b) / 1000, float64(c) / 1000})
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryOutputInUnitInterval(t *testing.T) {
	rng := xrand.New(2)
	net := NewBinary(3, []int{4}, rng)
	if err := quick.Check(func(a, b, c int16) bool {
		p := net.PredictBinary([]float64{float64(a) / 100, float64(b) / 100, float64(c) / 100})
		return p >= 0 && p <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingDeterministic(t *testing.T) {
	build := func() (*Net, [][]float64, []float64) {
		rng := xrand.New(11)
		var xs [][]float64
		var ys []float64
		for i := 0; i < 500; i++ {
			x := []float64{rng.Float64(), rng.Float64()}
			y := 0.0
			if x[0] > x[1] {
				y = 1
			}
			xs = append(xs, x)
			ys = append(ys, y)
		}
		net := NewBinary(2, []int{4}, rng)
		net.FitCtx(t.Context(), xs, ys, DefaultTrain(), rng)
		return net, xs, ys
	}
	n1, xs, _ := build()
	n2, _, _ := build()
	for _, x := range xs[:50] {
		if n1.PredictBinary(x) != n2.PredictBinary(x) {
			t.Fatal("training not deterministic")
		}
	}
}

func TestParamsCount(t *testing.T) {
	rng := xrand.New(1)
	// 3 inputs -> 4 hidden -> 1: (3*4+4) + (4*1+1) = 21.
	net := NewBinary(3, []int{4}, rng)
	if got := net.Params(); got != 21 {
		t.Fatalf("params = %d, want 21", got)
	}
	if net.Inputs() != 3 || net.Outputs() != 1 {
		t.Fatalf("shape %dx%d", net.Inputs(), net.Outputs())
	}
}

func TestPredictPanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBinary(3, nil, xrand.New(1)).Predict([]float64{1})
}

func TestFitMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	rng := xrand.New(1)
	NewBinary(1, nil, rng).FitCtx(t.Context(), [][]float64{{1}}, nil, DefaultTrain(), rng)
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 4 TN, 2 FN.
	for i := 0; i < 3; i++ {
		c.Add(true, true)
	}
	c.Add(true, false)
	for i := 0; i < 4; i++ {
		c.Add(false, false)
	}
	c.Add(false, true)
	c.Add(false, true)
	if c.Total() != 10 {
		t.Fatalf("total %d", c.Total())
	}
	if got := c.Accuracy(); got != 0.7 {
		t.Errorf("accuracy %v", got)
	}
	if got := c.Precision(); got != 0.75 {
		t.Errorf("precision %v", got)
	}
	if got := c.Recall(); got != 0.6 {
		t.Errorf("recall %v", got)
	}
	if got := c.PositiveRate(); got != 0.4 {
		t.Errorf("positive rate %v", got)
	}
	if got := c.BaseRate(); got != 0.5 {
		t.Errorf("base rate %v", got)
	}
}

func TestConfusionMerge(t *testing.T) {
	a := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}
	b := Confusion{TP: 10, FP: 20, TN: 30, FN: 40}
	a.Merge(b)
	if a != (Confusion{TP: 11, FP: 22, TN: 33, FN: 44}) {
		t.Fatalf("merge = %+v", a)
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var empty Confusion
	if empty.Accuracy() != 0 || empty.Recall() != 0 {
		t.Error("empty accuracy/recall nonzero")
	}
	if empty.Precision() != 1 {
		t.Error("empty precision should be 1 (nothing polluted)")
	}
}
