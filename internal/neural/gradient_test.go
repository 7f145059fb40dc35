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
		m := NewMLP(xrand.New(uint64(trial + 1)))
		var in [Inputs]float64
		for i := range in {
			in[i] = r.Norm(0, 1)
		}
		target := r.Norm(0, 1)

		// loss(w) with the current network weights.
		loss := func(net *MLP) float64 {
			d := net.Forward(&in) - target
			return d * d
		}

		// Numerical gradient for every weight and bias, on a frozen
		// copy.
		frozen := m.Clone()
		fp := params(&frozen)
		numGrad := make([]float64, len(fp))
		for p, w := range fp {
			orig := *w
			*w = orig + h
			up := loss(&frozen)
			*w = orig - h
			down := loss(&frozen)
			*w = orig
			numGrad[p] = (up - down) / (2 * h)
		}

		// Analytical gradient: one TrainClipped step at momentum 0 moves each
		// weight by -lr * dLoss'/dw where the implementation's error
		// signal is (out - target), i.e. half of d(Σ(out-t)²)/d(out).
		before := m.Clone()
		m.TrainClipped(&in, target, lr, 0, 0)
		bp, mp := params(&before), params(&m)
		for p := range mp {
			applied := (*bp[p] - *mp[p]) / lr
			want := numGrad[p] / 2
			if math.Abs(applied-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("trial %d: parameter %d gradient %v, numerical %v",
					trial, p, applied, want)
			}
		}
	}
}

// params returns pointers to every weight and bias of m in snapshot
// order: the hidden weight rows, the hidden biases, the output weights
// and the output bias.
func params(m *MLP) []*float64 {
	var ps []*float64
	for j := range m.w1 {
		for i := range m.w1[j] {
			ps = append(ps, &m.w1[j][i])
		}
	}
	for j := range m.b1 {
		ps = append(ps, &m.b1[j])
	}
	for j := range m.w2 {
		ps = append(ps, &m.w2[j])
	}
	return append(ps, &m.b2)
}

// TestTrainClippedBoundsGradient checks that clipping limits the
// update magnitude on an outlier target.
func TestTrainClippedBoundsGradient(t *testing.T) {
	mkNet := func() MLP { return NewMLP(xrand.New(7)) }
	in := [Inputs]float64{0.5, -0.5, 0.25, 0, -0.25, 0.5}
	const outlier = 1000

	free := mkNet()
	clipped := mkNet()
	free.TrainClipped(&in, outlier, 0.001, 0, 0)
	clipped.TrainClipped(&in, outlier, 0.001, 0, 0.5)

	// Compare how far each network moved its weights.
	move := func(m *MLP) float64 {
		ref := mkNet()
		var sum float64
		for j := range m.w1 {
			for i := range m.w1[j] {
				sum += math.Abs(m.w1[j][i] - ref.w1[j][i])
			}
			sum += math.Abs(m.w2[j] - ref.w2[j])
		}
		return sum
	}
	if move(&clipped) >= move(&free)/10 {
		t.Fatalf("clipping barely reduced the outlier update: %v vs %v", move(&clipped), move(&free))
	}
}
