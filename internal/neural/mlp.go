// Package neural implements the multi-layer perceptron behind the
// paper's load predictor (Section IV-C): a low-complexity MLP — the
// paper uses a (6,3,1) structure of input, hidden, and output neuron
// layers — trained by error backpropagation with momentum over
// "training eras", each era presenting all training sets in sequence,
// adjusting the weights, and testing against held-out test sets until
// a convergence criterion is fulfilled. The package also provides the
// polynomial signal preprocessors the paper couples with the network
// to remove unwanted noise from the input signal.
package neural

import (
	"fmt"
	"math"
	"slices"

	"mmogdc/internal/xrand"
)

// Inputs and Hidden are the paper's network shape (6,3,1): six input
// neurons, three tanh hidden neurons and one linear output.
const (
	Inputs = 6
	Hidden = 3
)

// MLP is the paper's (6,3,1) feed-forward network, trained with SGD +
// momentum. Every weight, bias, momentum term and activation is a
// fixed-size array of the struct, so a network is one value and its
// passes are straight-line code over arrays.
type MLP struct {
	// w1[j] is hidden neuron j's weight row and b1[j] its bias; w2 and
	// b2 feed the output. v1, vb1, v2 and vb2 are their momentum.
	w1, v1  [Hidden][Inputs]float64
	b1, vb1 [Hidden]float64
	w2, v2  [Hidden]float64
	b2, vb2 float64
	// in, h and out hold the last forward pass: its input, the hidden
	// activations and the output.
	in  [Inputs]float64
	h   [Hidden]float64
	out float64
	// fwd reports that in, h and out hold the forward pass of in under
	// the current weights. Forward sets it; every weight update and
	// every restore by State clear it, so TrainClipped can reuse the
	// pass Predict just ran.
	fwd bool
}

// NewMLP builds the paper's network with Xavier-style scaled weights
// drawn from r: the hidden layer's row by row, then the output
// layer's. The biases start at zero.
func NewMLP(r *xrand.Rand) MLP {
	var m MLP
	scale := math.Sqrt(2.0 / float64(Inputs+Hidden))
	for j := range m.w1 {
		for i := range m.w1[j] {
			m.w1[j][i] = r.Norm(0, scale)
		}
	}
	scale = math.Sqrt(2.0 / float64(Hidden+1))
	for j := range m.w2 {
		m.w2[j] = r.Norm(0, scale)
	}
	return m
}

// Forward runs inference on an input of Inputs values, panicking on any
// other width.
func (m *MLP) Forward(in []float64) float64 {
	return m.forward(inputs(in))
}

// inputs returns in as an array, panicking on any other width.
func inputs(in []float64) *[Inputs]float64 {
	if len(in) != Inputs {
		panic(fmt.Sprintf("neural: input size %d, want %d", len(in), Inputs))
	}
	return (*[Inputs]float64)(in)
}

// forward is Forward on an array. Each hidden neuron's sum starts at
// its bias and adds its weighted inputs in index order; the three sums
// advance side by side, so their additions overlap.
func (m *MLP) forward(in *[Inputs]float64) float64 {
	m.in = *in
	w := &m.w1
	s0, s1, s2 := m.b1[0], m.b1[1], m.b1[2]
	for i, x := range &m.in {
		s0 += w[0][i] * x
		s1 += w[1][i] * x
		s2 += w[2][i] * x
	}
	m.h = [Hidden]float64{math.Tanh(s0), math.Tanh(s1), math.Tanh(s2)}
	sum := m.b2
	sum += m.w2[0] * m.h[0]
	sum += m.w2[1] * m.h[1]
	sum += m.w2[2] * m.h[2]
	m.out = sum // linear output
	m.fwd = true
	return sum
}

// TrainClipped runs one backpropagation step on a single (input,
// target) example, the target one value, and returns the pre-update
// squared error. With clip > 0 the error driving the weight update is
// clamped to ±clip (Huber-style; clip <= 0 disables clipping).
// Clipping bounds the influence of heavy-tailed outliers, moving the
// regression from the conditional mean toward the conditional median —
// which is what the prediction-error metric (mean absolute error)
// rewards. The returned loss is the unclipped squared error.
//
// When the last Forward ran on bit-identical input under the current
// weights (the online predictor trains on the window it predicted from
// one step earlier), its activations are reused instead of recomputed:
// the same operations on the same bits give the same values.
func (m *MLP) TrainClipped(in, target []float64, lr, momentum, clip float64) float64 {
	x := inputs(in)
	if len(target) != 1 {
		panic(fmt.Sprintf("neural: target size %d, want 1", len(target)))
	}
	return m.step(x, target[0], lr, momentum, clip)
}

// step is TrainClipped on an array and a scalar target.
func (m *MLP) step(in *[Inputs]float64, target, lr, momentum, clip float64) float64 {
	if !m.fwd || !sameBits(in, &m.in) {
		m.forward(in)
	}
	m.fwd = false
	g := m.out - target
	var loss float64
	loss += g * g
	if clip > 0 {
		if g > clip {
			g = clip
		} else if g < -clip {
			g = -clip
		}
	}
	// Backpropagate to the hidden layer (tanh derivative 1 - a^2).
	var d [Hidden]float64
	for i := range d {
		var sum float64
		sum += m.w2[i] * g
		a := m.h[i]
		d[i] = sum * (1 - a*a)
	}
	// Gradient descent with momentum, the hidden layer first.
	x := &m.in
	for j := range m.w1 {
		w, v, gj := &m.w1[j], &m.v1[j], d[j]
		v[0] = momentum*v[0] - lr*gj*x[0]
		w[0] += v[0]
		v[1] = momentum*v[1] - lr*gj*x[1]
		w[1] += v[1]
		v[2] = momentum*v[2] - lr*gj*x[2]
		w[2] += v[2]
		v[3] = momentum*v[3] - lr*gj*x[3]
		w[3] += v[3]
		v[4] = momentum*v[4] - lr*gj*x[4]
		w[4] += v[4]
		v[5] = momentum*v[5] - lr*gj*x[5]
		w[5] += v[5]
		m.vb1[j] = momentum*m.vb1[j] - lr*gj
		m.b1[j] += m.vb1[j]
	}
	for i := range m.w2 {
		m.v2[i] = momentum*m.v2[i] - lr*g*m.h[i]
		m.w2[i] += m.v2[i]
	}
	m.vb2 = momentum*m.vb2 - lr*g
	m.b2 += m.vb2
	return loss
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// so -0 and +0 differ and a NaN matches only its own payload.
func sameBits(a, b *[Inputs]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the network's weights and biases; momentum,
// activations and the forward-pass flag start at zero.
func (m *MLP) Clone() MLP {
	return MLP{w1: m.w1, b1: m.b1, w2: m.w2, b2: m.b2}
}

// Row is one training example as Fit reads it: the input window, its
// target, and a pad that makes the row one 64-byte cache line.
type Row struct {
	In     [Inputs]float64
	Target float64
	_      float64
}

// TrainConfig controls offline era-based training.
type TrainConfig struct {
	// LearningRate for SGD; defaults to 0.05.
	LearningRate float64
	// Momentum coefficient; defaults to 0.5.
	Momentum float64
	// MaxEras bounds training; defaults to 200.
	MaxEras int
	// Patience stops after this many eras without test-set
	// improvement; defaults to 10.
	Patience int
	// MinImprovement is the relative test-loss improvement that resets
	// patience; defaults to 1e-4.
	MinImprovement float64
	// ShuffleSeed, when non-zero, reshuffles the training samples
	// before every era. Without shuffling, samples grouped by source
	// (e.g. one sub-zone after another) cause catastrophic
	// interference: the weights end every era biased toward the last
	// group presented.
	ShuffleSeed uint64
	// LRDecay shrinks the learning rate as lr/(1+LRDecay*era),
	// settling the network onto a minimum late in training. Zero
	// disables decay.
	LRDecay float64
	// ErrorClip bounds the per-sample error driving the weight update
	// (Huber-style robustness); zero disables clipping.
	ErrorClip float64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.5
	}
	if c.MaxEras == 0 {
		c.MaxEras = 200
	}
	if c.Patience == 0 {
		c.Patience = 10
	}
	if c.MinImprovement == 0 {
		c.MinImprovement = 1e-4
	}
	return c
}

// TrainResult reports how offline training went.
type TrainResult struct {
	// Eras is the number of completed training eras.
	Eras int
	// TrainLoss and TestLoss are the final mean squared errors.
	TrainLoss float64
	TestLoss  float64
	// Converged is true when the patience criterion stopped training
	// before MaxEras.
	Converged bool
}

// Fit trains the network offline: each era presents all training rows
// in sequence, adjusts the weights, and evaluates on the test rows;
// training stops when the test loss stops improving (the paper's
// convergence criterion) or MaxEras is reached. With no test rows the
// train loss is used for the criterion. With ShuffleSeed set, Fit
// trains a copy of the training rows, which each era's shuffle
// reorders, so the era reads them front to back. It changes neither the
// training nor the test rows.
func (m *MLP) Fit(train, test []Row, cfg TrainConfig) TrainResult {
	c := cfg.withDefaults()
	res := TrainResult{}
	if len(train) == 0 {
		return res
	}
	rows := train
	var shuffler *xrand.Rand
	if c.ShuffleSeed != 0 {
		rows = slices.Clone(train)
		shuffler = xrand.New(c.ShuffleSeed)
	}
	best := math.Inf(1)
	bad := 0
	for era := 0; era < c.MaxEras; era++ {
		if shuffler != nil {
			shuffler.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		lr := c.LearningRate / (1 + c.LRDecay*float64(era))
		var trainLoss float64
		for k := range rows {
			trainLoss += m.step(&rows[k].In, rows[k].Target, lr, c.Momentum, c.ErrorClip)
		}
		trainLoss /= float64(len(rows))
		testLoss := trainLoss
		if len(test) > 0 {
			testLoss = m.Loss(test)
		}
		res.Eras = era + 1
		res.TrainLoss = trainLoss
		res.TestLoss = testLoss
		if testLoss < best*(1-c.MinImprovement) {
			best = testLoss
			bad = 0
		} else {
			bad++
			if bad >= c.Patience {
				res.Converged = true
				break
			}
		}
	}
	return res
}

// Loss returns the mean squared error over the rows.
func (m *MLP) Loss(rows []Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	var total float64
	for k := range rows {
		d := m.forward(&rows[k].In) - rows[k].Target
		total += d * d
	}
	return total / float64(len(rows))
}
