package predict

import (
	"math"

	"mmogdc/internal/neural"
	"mmogdc/internal/xrand"
)

// NeuralConfig parameterizes the neural predictor.
type NeuralConfig struct {
	// Seed initializes the network weights deterministically.
	Seed uint64
	// Capacity normalizes inputs into the network's working range;
	// use the signal's plausible maximum (e.g. zone capacity).
	Capacity float64
	// LearningRate drives the online weight updates.
	LearningRate float64
	// Degree of the polynomial de-noising (neural.Smooth); a negative
	// degree, or one of neural.Inputs or more, feeds the network the raw
	// window.
	Degree int
	// OutputScale multiplies training targets (and divides network
	// outputs) so the regression target has a healthy magnitude even
	// when the normalized signal moves by tiny deltas. PretrainShared
	// auto-calibrates it from the collected data when zero; otherwise
	// it defaults to 1.
	OutputScale float64
	// OnlineLearningRate is the learning rate used for the per-sample
	// updates during deployment; it defaults to LearningRate. Use a
	// smaller value to keep a converged pretrained network from being
	// perturbed by noisy single-sample updates.
	OnlineLearningRate float64
	// ErrorClip bounds the error driving each weight update
	// (Huber-style); zero disables clipping.
	ErrorClip float64
}

// onlineMomentum is the momentum of the online weight updates.
const onlineMomentum = 0.5

func (c NeuralConfig) withDefaults() NeuralConfig {
	if c.Capacity == 0 {
		c.Capacity = 2000
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.OutputScale == 0 {
		c.OutputScale = 1
	}
	if c.OnlineLearningRate == 0 {
		c.OnlineLearningRate = c.LearningRate
	}
	return c
}

// Neural is the paper's neural-network-based predictor: a (6,3,1)
// multi-layer perceptron over a sliding window of the last six
// samples, de-noised by a polynomial smoother and normalized by the
// signal capacity. Deployment is online: every new observation
// also provides a training example (previous window -> actual value),
// so the network keeps adapting to the signal — the online analogue of
// the paper's offline data-collection and training-era phases, which
// PretrainShared reproduces verbatim.
//
// The network is residual: it predicts the load *change* over the next
// interval, added to the last observed value. It cannot be worse than
// the last-value predictor when it outputs zero, and it learns trends
// and mean-reversion as corrections.
type Neural struct {
	cfg  NeuralConfig
	net  neural.MLP
	norm neural.Normalizer
	// window is the normalized history, oldest first: its first
	// min(seen, neural.Inputs) entries hold the samples seen.
	window [neural.Inputs]float64
	seen   int
	// prevIn holds the smoothed window that produced the previous
	// prediction, i.e. the training input once the actual arrives;
	// prevLast is the normalized last value of that window (the
	// baseline the residual is added to). Both are set once the window
	// is full.
	prevIn   [neural.Inputs]float64
	prevLast float64
}

// NewNeural returns a neural predictor factory.
func NewNeural(cfg NeuralConfig) Factory {
	return func() Predictor {
		return MustNeural(cfg)
	}
}

// MustNeural builds a neural predictor with a network drawn from
// cfg.Seed, panicking on invalid configuration (the configs in this
// repository are static).
func MustNeural(cfg NeuralConfig) *Neural {
	p := newNeural(cfg)
	p.net = neural.NewMLP(xrand.New(p.cfg.Seed))
	return p
}

// newNeural builds a neural predictor around a zero network.
func newNeural(cfg NeuralConfig) *Neural {
	c := cfg.withDefaults()
	norm, err := neural.NewNormalizer(c.Capacity)
	if err != nil {
		panic(err)
	}
	return &Neural{cfg: c, norm: norm}
}

// Name implements Predictor.
func (p *Neural) Name() string { return "Neural" }

// Observe implements Predictor.
func (p *Neural) Observe(v float64) {
	nv := p.norm.Norm(v)
	// Online training: the window that preceded this observation
	// should have predicted it. Training starts one sample after the
	// window first fills.
	if p.seen > neural.Inputs {
		target := (nv - p.prevLast) * p.cfg.OutputScale
		p.net.TrainClipped(&p.prevIn, target, p.cfg.OnlineLearningRate, onlineMomentum, p.cfg.ErrorClip)
	}
	if p.seen >= neural.Inputs {
		copy(p.window[:], p.window[1:])
		p.window[neural.Inputs-1] = nv
	} else {
		p.window[p.seen] = nv
	}
	if p.seen < math.MaxInt { // a restored count can sit at the top
		p.seen++
	}
	if p.seen >= neural.Inputs {
		neural.Smooth(&p.prevIn, &p.window, p.cfg.Degree)
		p.prevLast = p.window[neural.Inputs-1]
	}
}

// Predict implements Predictor.
func (p *Neural) Predict() float64 {
	if p.seen == 0 {
		return 0
	}
	if p.seen < neural.Inputs {
		// Window not yet full: fall back to the last value.
		return p.norm.Denorm(p.window[p.seen-1])
	}
	return p.norm.Denorm(p.net.Forward(&p.prevIn)/p.cfg.OutputScale + p.prevLast)
}

// pretrain trains the network offline on the examples of every signal,
// in order: each smoothed, normalized window of neural.Inputs samples,
// with the (scaled) step to the next sample as its target. An example
// whose window or next sample holds a NaN or an infinity is left out.
// Each example is written once, into the row Fit trains from; the first
// trainFraction of them (0.8 when out of range) form the training set
// and the rest the test set.
func (p *Neural) pretrain(signals [][]float64, trainFraction float64, cfg neural.TrainConfig) neural.TrainResult {
	const w = neural.Inputs
	n := 0
	for _, signal := range signals {
		n += max(len(signal)-w, 0)
	}
	rows := make([]neural.Row, 0, n)
	var raw [w]float64
	for _, signal := range signals {
		run := 0 // finite samples ending at signal[t]
		for t, v := range signal {
			if !finite(v) {
				run = 0
				continue
			}
			if run++; run <= w {
				continue
			}
			// signal[t-w:t] is the window and v the sample after it.
			for j := range raw {
				raw[j] = p.norm.Norm(signal[t-w+j])
			}
			rows = append(rows, neural.Row{})
			r := &rows[len(rows)-1]
			neural.Smooth(&r.In, &raw, p.cfg.Degree)
			r.Target = (p.norm.Norm(v) - p.norm.Norm(signal[t-1])) * p.cfg.OutputScale
		}
	}
	if len(rows) == 0 {
		return neural.TrainResult{}
	}
	if trainFraction <= 0 || trainFraction > 1 {
		trainFraction = 0.8
	}
	split := int(float64(len(rows)) * trainFraction)
	if split < 1 {
		split = 1
	}
	return p.net.Fit(rows[:split], rows[split:], cfg)
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }
