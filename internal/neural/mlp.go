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
	"slices"

	"mmogdc/internal/xrand"
)

// MLP is a fully connected feed-forward network with tanh hidden
// layers and a linear output layer, trained with SGD + momentum. Each
// kind of state is one flat slice, indexed by each layer's span:
// params holds every layer's weight rows (row j feeds neuron j) and
// then its biases, vel their momentum, and acts and deltas every
// layer's activations and backpropagated errors.
type MLP struct {
	sizes        []int
	layers       []span
	params, vel  []float64
	acts, deltas []float64
	// fwd reports that acts hold the forward pass, under the current
	// weights, of the input at their head. Forward sets it; every
	// weight update and Restore clear it, so TrainClipped can reuse the
	// pass Predict just ran.
	fwd bool
}

// span locates one layer of in×out weights in an MLP's flat slices:
// its weight rows at w and its biases at b in params and vel, its input
// and output neurons at src and dst in acts and deltas.
type span struct{ in, out, w, b, src, dst int }

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
	np, na := 0, sizes[0]
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		m.layers = append(m.layers, span{in: in, out: out, w: np, b: np + out*in, src: na - in, dst: na})
		np += (in + 1) * out
		na += out
	}
	m.params = make([]float64, np)
	for _, ly := range m.layers {
		scale := math.Sqrt(2.0 / float64(ly.in+ly.out))
		for i := ly.w; i < ly.b; i++ {
			m.params[i] = r.Norm(0, scale)
		}
	}
	m.vel, m.acts, m.deltas = make([]float64, np), make([]float64, na), make([]float64, na)
	return m, nil
}

// Forward runs inference. The returned slice aliases internal scratch
// storage and is valid until the next Forward or TrainClipped call.
func (m *MLP) Forward(in []float64) []float64 {
	if len(in) != m.sizes[0] {
		panic(fmt.Sprintf("neural: input size %d, want %d", len(in), m.sizes[0]))
	}
	copy(m.acts, in)
	for l, ly := range m.layers {
		src := m.acts[ly.src:ly.dst]
		dst := m.acts[ly.dst : ly.dst+ly.out]
		b := m.params[ly.b : ly.b+ly.out]
		for j := range dst {
			sum := b[j]
			wj := m.params[ly.w+j*ly.in:][:len(src)]
			for i, x := range src {
				sum += wj[i] * x
			}
			if l+1 == len(m.layers) {
				dst[j] = sum // linear output
			} else {
				dst[j] = math.Tanh(sum)
			}
		}
	}
	m.fwd = true
	return m.acts[m.layers[len(m.layers)-1].dst:]
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
	last := m.layers[len(m.layers)-1].dst
	out := m.acts[last:]
	if !m.fwd || !sameBits(in, m.acts[:m.sizes[0]]) {
		out = m.Forward(in)
	}
	if len(target) != len(out) {
		panic(fmt.Sprintf("neural: target size %d, want %d", len(target), len(out)))
	}
	m.fwd = false
	var loss float64
	delta := m.deltas[last:]
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
		delta[j] = err // linear output: delta = error
	}
	// Backpropagate through hidden layers (tanh derivative 1 - a^2).
	for l := len(m.layers) - 1; l >= 1; l-- {
		ly := m.layers[l]
		next := m.deltas[ly.dst : ly.dst+ly.out]
		for i := 0; i < ly.in; i++ {
			var sum float64
			for j, d := range next {
				sum += m.params[ly.w+j*ly.in+i] * d
			}
			a := m.acts[ly.src+i]
			m.deltas[ly.src+i] = sum * (1 - a*a)
		}
	}
	// Gradient descent with momentum.
	for _, ly := range m.layers {
		src := m.acts[ly.src:ly.dst]
		d := m.deltas[ly.dst : ly.dst+ly.out]
		b, bv := m.params[ly.b:ly.b+ly.out], m.vel[ly.b:ly.b+ly.out]
		for j, g := range d {
			wj := m.params[ly.w+j*ly.in:][:len(src)]
			vj := m.vel[ly.w+j*ly.in:][:len(src)]
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
// buffers are reset). The layer geometry, never written after NewMLP,
// is shared.
func (m *MLP) Clone() *MLP {
	return &MLP{
		sizes:  m.sizes,
		layers: m.layers,
		params: slices.Clone(m.params),
		vel:    make([]float64, len(m.vel)),
		acts:   make([]float64, len(m.acts)),
		deltas: make([]float64, len(m.deltas)),
	}
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
// samples the train loss is used for the criterion. A sample of the
// wrong width panics before any weight moves. The training samples are
// copied once into rows of input then target, padded to whole 64-byte
// cache lines; an era's shuffle swaps the rows, so the era reads them
// front to back.
func (m *MLP) Fit(train, test []Sample, cfg TrainConfig) TrainResult {
	c := cfg.withDefaults()
	res := TrainResult{}
	if len(train) == 0 {
		return res
	}
	in, out := m.sizes[0], m.sizes[len(m.sizes)-1]
	for _, set := range [][]Sample{train, test} {
		for _, s := range set {
			if len(s.In) != in || len(s.Target) != out {
				panic(fmt.Sprintf("neural: sample of %d inputs and %d targets, want %d and %d", len(s.In), len(s.Target), in, out))
			}
		}
	}
	stride := (in + out + 7) &^ 7
	rows := make([]float64, len(train)*stride)
	for k, s := range train {
		copy(rows[k*stride:], s.In)
		copy(rows[k*stride+in:], s.Target)
	}
	var shuffler *xrand.Rand
	if c.ShuffleSeed != 0 {
		shuffler = xrand.New(c.ShuffleSeed)
	}
	best := math.Inf(1)
	bad := 0
	for era := 0; era < c.MaxEras; era++ {
		if shuffler != nil {
			shuffler.Shuffle(len(train), func(i, j int) {
				a, b := rows[i*stride:][:stride], rows[j*stride:][:stride]
				for x := range a {
					a[x], b[x] = b[x], a[x]
				}
			})
		}
		lr := c.LearningRate / (1 + c.LRDecay*float64(era))
		var trainLoss float64
		for r := 0; r < len(rows); r += stride {
			row := rows[r : r+in+out]
			trainLoss += m.TrainClipped(row[:in], row[in:], lr, c.Momentum, c.ErrorClip)
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
