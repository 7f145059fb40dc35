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
	"errors"
	"fmt"
	"math"

	"mmogdc/internal/xrand"
)

// MLP is a fully connected feed-forward network with tanh hidden
// layers and a linear output layer, trained with SGD + momentum.
type MLP struct {
	sizes []int
	// weights[l][j][i] connects layer l's input i to neuron j.
	weights [][][]float64
	biases  [][]float64
	// momentum buffers, same shapes as weights/biases.
	wVel [][][]float64
	bVel [][]float64
	// scratch per-layer activations and deltas, reused across calls.
	acts   [][]float64
	deltas [][]float64
	// fwd reports that acts hold the forward pass of acts[0] under the
	// current weights. Forward sets it; every weight update and Restore
	// clear it, so TrainClipped can reuse the pass Predict just ran.
	fwd bool
}

// NewMLP builds a network with the given layer sizes, e.g.
// NewMLP(r, 6, 3, 1) for the paper's predictor. Weights are
// initialized with Xavier-style scaling from r.
func NewMLP(r *xrand.Rand, sizes ...int) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, errors.New("neural: need at least input and output layers")
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("neural: invalid layer size %d", s)
		}
	}
	m := &MLP{sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in+out))
		w := make([][]float64, out)
		v := make([][]float64, out)
		for j := range w {
			w[j] = make([]float64, in)
			v[j] = make([]float64, in)
			for i := range w[j] {
				w[j][i] = r.Norm(0, scale)
			}
		}
		m.weights = append(m.weights, w)
		m.wVel = append(m.wVel, v)
		m.biases = append(m.biases, make([]float64, out))
		m.bVel = append(m.bVel, make([]float64, out))
	}
	m.acts = make([][]float64, len(sizes))
	m.deltas = make([][]float64, len(sizes))
	for l, s := range sizes {
		m.acts[l] = make([]float64, s)
		m.deltas[l] = make([]float64, s)
	}
	return m, nil
}

// Forward runs inference. The returned slice aliases internal scratch
// storage and is valid until the next Forward or TrainClipped call.
func (m *MLP) Forward(in []float64) []float64 {
	if len(in) != m.sizes[0] {
		panic(fmt.Sprintf("neural: input size %d, want %d", len(in), m.sizes[0]))
	}
	copy(m.acts[0], in)
	last := len(m.sizes) - 1
	for l := 0; l < last; l++ {
		w := m.weights[l]
		b := m.biases[l]
		src := m.acts[l]
		dst := m.acts[l+1]
		for j := range dst {
			sum := b[j]
			wj := w[j]
			for i, x := range src {
				sum += wj[i] * x
			}
			if l+1 == last {
				dst[j] = sum // linear output
			} else {
				dst[j] = math.Tanh(sum)
			}
		}
	}
	m.fwd = true
	return m.acts[last]
}

// TrainClipped runs one backpropagation step on a single (input,
// target) example and returns the pre-update squared error. With
// clip > 0 the error driving the weight update is clamped to ±clip
// (Huber-style; clip <= 0 disables clipping). Clipping bounds the
// influence of heavy-tailed outliers, moving the regression from the
// conditional mean toward the conditional median — which is what the
// prediction-error metric (mean absolute error) rewards. The returned
// loss is the unclipped squared error.
//
// When the last Forward ran on bit-identical input under the current
// weights (the online predictor trains on the window it predicted from
// one step earlier), its activations are reused instead of recomputed:
// the same operations on the same bits give the same values.
func (m *MLP) TrainClipped(in, target []float64, lr, momentum, clip float64) float64 {
	last := len(m.sizes) - 1
	out := m.acts[last]
	if !m.fwd || !sameBits(in, m.acts[0]) {
		out = m.Forward(in)
	}
	if len(target) != len(out) {
		panic(fmt.Sprintf("neural: target size %d, want %d", len(target), len(out)))
	}
	m.fwd = false
	var loss float64
	for j := range out {
		err := out[j] - target[j]
		loss += err * err
		if clip > 0 {
			if err > clip {
				err = clip
			} else if err < -clip {
				err = -clip
			}
		}
		m.deltas[last][j] = err // linear output: delta = error
	}
	// Backpropagate through hidden layers (tanh derivative 1 - a^2).
	for l := last - 1; l >= 1; l-- {
		wNext := m.weights[l]
		for i := range m.deltas[l] {
			var sum float64
			for j := range m.deltas[l+1] {
				sum += wNext[j][i] * m.deltas[l+1][j]
			}
			a := m.acts[l][i]
			m.deltas[l][i] = sum * (1 - a*a)
		}
	}
	// Gradient descent with momentum.
	for l := 0; l < last; l++ {
		w := m.weights[l]
		wv := m.wVel[l]
		b := m.biases[l]
		bv := m.bVel[l]
		src := m.acts[l]
		d := m.deltas[l+1]
		for j := range w {
			g := d[j]
			wj, vj := w[j], wv[j]
			for i, x := range src {
				vj[i] = momentum*vj[i] - lr*g*x
				wj[i] += vj[i]
			}
			bv[j] = momentum*bv[j] - lr*g
			b[j] += bv[j]
		}
	}
	return loss
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// so -0 and +0 differ and a NaN matches only its own payload.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the network (weights only; momentum
// buffers are reset).
func (m *MLP) Clone() *MLP {
	c := &MLP{sizes: append([]int(nil), m.sizes...)}
	for l := range m.weights {
		w := make([][]float64, len(m.weights[l]))
		v := make([][]float64, len(m.weights[l]))
		for j := range w {
			w[j] = append([]float64(nil), m.weights[l][j]...)
			v[j] = make([]float64, len(m.weights[l][j]))
		}
		c.weights = append(c.weights, w)
		c.wVel = append(c.wVel, v)
		c.biases = append(c.biases, append([]float64(nil), m.biases[l]...))
		c.bVel = append(c.bVel, make([]float64, len(m.biases[l])))
	}
	c.acts = make([][]float64, len(c.sizes))
	c.deltas = make([][]float64, len(c.sizes))
	for l, s := range c.sizes {
		c.acts[l] = make([]float64, s)
		c.deltas[l] = make([]float64, s)
	}
	return c
}

// Sample is one supervised training example.
type Sample struct {
	In     []float64
	Target []float64
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

// Fit trains the network offline: each era presents all training
// samples in sequence, adjusts the weights, and evaluates on the test
// samples; training stops when the test loss stops improving (the
// paper's convergence criterion) or MaxEras is reached. With no test
// samples the train loss is used for the criterion.
func (m *MLP) Fit(train, test []Sample, cfg TrainConfig) TrainResult {
	c := cfg.withDefaults()
	res := TrainResult{}
	if len(train) == 0 {
		return res
	}
	var shuffler *xrand.Rand
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	if c.ShuffleSeed != 0 {
		shuffler = xrand.New(c.ShuffleSeed)
	}
	best := math.Inf(1)
	bad := 0
	for era := 0; era < c.MaxEras; era++ {
		if shuffler != nil {
			shuffler.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		lr := c.LearningRate / (1 + c.LRDecay*float64(era))
		var trainLoss float64
		for _, idx := range order {
			s := train[idx]
			trainLoss += m.TrainClipped(s.In, s.Target, lr, c.Momentum, c.ErrorClip)
		}
		trainLoss /= float64(len(train))
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

// Loss returns the mean squared error over the samples.
func (m *MLP) Loss(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var total float64
	for _, s := range samples {
		out := m.Forward(s.In)
		for j := range out {
			d := out[j] - s.Target[j]
			total += d * d
		}
	}
	return total / float64(len(samples))
}
