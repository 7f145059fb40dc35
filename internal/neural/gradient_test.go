package neural

import (
	"math"
	"testing"

	"mmogdc/internal/xrand"
)

// TestBackpropMatchesNumericalGradient verifies the backpropagation
// implementation against central-difference numerical gradients: for
// random networks and samples, perturb each weight and bias by ±h and
// compare d(loss)/d(w) with what one TrainClipped step applies (recovered
// from the weight delta at momentum 0, divided by the learning rate).
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	r := xrand.New(123)
	const (
		lr  = 1e-3
		h   = 1e-5
		tol = 1e-4
	)
	for trial := 0; trial < 5; trial++ {
		m, err := NewMLP(xrand.New(uint64(trial+1)), 4, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		in := []float64{r.Norm(0, 1), r.Norm(0, 1), r.Norm(0, 1), r.Norm(0, 1)}
		target := []float64{r.Norm(0, 1), r.Norm(0, 1)}

		// loss(w) with the current network weights.
		loss := func(net *MLP) float64 {
			out := net.Forward(in)
			var l float64
			for j := range out {
				d := out[j] - target[j]
				l += d * d
			}
			return l
		}

		// Numerical gradient for every weight and bias, on a frozen
		// copy.
		frozen := m.Clone()
		numGrad := make([]float64, len(frozen.params))
		for p, orig := range frozen.params {
			frozen.params[p] = orig + h
			up := loss(frozen)
			frozen.params[p] = orig - h
			down := loss(frozen)
			frozen.params[p] = orig
			numGrad[p] = (up - down) / (2 * h)
		}

		// Analytical gradient: one TrainClipped step at momentum 0 moves each
		// weight by -lr * dLoss'/dw where the implementation's error
		// signal is (out - target), i.e. half of d(Σ(out-t)²)/d(out).
		before := m.Clone()
		m.TrainClipped(in, target, lr, 0, 0)
		for p := range m.params {
			applied := (before.params[p] - m.params[p]) / lr
			want := numGrad[p] / 2
			if math.Abs(applied-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("trial %d: parameter %d gradient %v, numerical %v",
					trial, p, applied, want)
			}
		}
	}
}

// TestTrainClippedBoundsGradient checks that clipping limits the
// update magnitude on an outlier target.
func TestTrainClippedBoundsGradient(t *testing.T) {
	mkNet := func() *MLP {
		m, _ := NewMLP(xrand.New(7), 2, 2, 1)
		return m
	}
	in := []float64{0.5, -0.5}
	outlier := []float64{1000}

	free := mkNet()
	clipped := mkNet()
	free.TrainClipped(in, outlier, 0.001, 0, 0)
	clipped.TrainClipped(in, outlier, 0.001, 0, 0.5)

	// Compare how far each network moved its first-layer weights.
	move := func(m *MLP) float64 {
		ref := mkNet()
		var sum float64
		for _, ly := range m.layers {
			for i := ly.w; i < ly.b; i++ {
				sum += math.Abs(m.params[i] - ref.params[i])
			}
		}
		return sum
	}
	if move(clipped) >= move(free)/10 {
		t.Fatalf("clipping barely reduced the outlier update: %v vs %v", move(clipped), move(free))
	}
}
