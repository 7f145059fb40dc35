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
		numGradW := make([][][]float64, len(frozen.weights))
		numGradB := make([][]float64, len(frozen.biases))
		for l := range frozen.weights {
			numGradW[l] = make([][]float64, len(frozen.weights[l]))
			for j := range frozen.weights[l] {
				numGradW[l][j] = make([]float64, len(frozen.weights[l][j]))
				for i := range frozen.weights[l][j] {
					orig := frozen.weights[l][j][i]
					frozen.weights[l][j][i] = orig + h
					up := loss(frozen)
					frozen.weights[l][j][i] = orig - h
					down := loss(frozen)
					frozen.weights[l][j][i] = orig
					numGradW[l][j][i] = (up - down) / (2 * h)
				}
			}
			numGradB[l] = make([]float64, len(frozen.biases[l]))
			for j := range frozen.biases[l] {
				orig := frozen.biases[l][j]
				frozen.biases[l][j] = orig + h
				up := loss(frozen)
				frozen.biases[l][j] = orig - h
				down := loss(frozen)
				frozen.biases[l][j] = orig
				numGradB[l][j] = (up - down) / (2 * h)
			}
		}

		// Analytical gradient: one TrainClipped step at momentum 0 moves each
		// weight by -lr * dLoss'/dw where the implementation's error
		// signal is (out - target), i.e. half of d(Σ(out-t)²)/d(out).
		before := m.Clone()
		m.TrainClipped(in, target, lr, 0, 0)
		for l := range m.weights {
			for j := range m.weights[l] {
				for i := range m.weights[l][j] {
					applied := (before.weights[l][j][i] - m.weights[l][j][i]) / lr
					want := numGradW[l][j][i] / 2
					if math.Abs(applied-want) > tol*(1+math.Abs(want)) {
						t.Fatalf("trial %d: weight[%d][%d][%d] gradient %v, numerical %v",
							trial, l, j, i, applied, want)
					}
				}
			}
			for j := range m.biases[l] {
				applied := (before.biases[l][j] - m.biases[l][j]) / lr
				want := numGradB[l][j] / 2
				if math.Abs(applied-want) > tol*(1+math.Abs(want)) {
					t.Fatalf("trial %d: bias[%d][%d] gradient %v, numerical %v",
						trial, l, j, applied, want)
				}
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
		for l := range m.weights {
			for j := range m.weights[l] {
				for i := range m.weights[l][j] {
					sum += math.Abs(m.weights[l][j][i] - ref.weights[l][j][i])
				}
			}
		}
		return sum
	}
	if move(clipped) >= move(free)/10 {
		t.Fatalf("clipping barely reduced the outlier update: %v vs %v", move(clipped), move(free))
	}
}
