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
	// Window is the number of past samples fed to the network; the
	// paper's structure is (6, 3, 1).
	Window int
	// Hidden is the hidden-layer width.
	Hidden int
	// Capacity normalizes inputs into the network's working range;
	// use the signal's plausible maximum (e.g. zone capacity).
	Capacity float64
	// LearningRate drives the online weight updates.
	LearningRate float64
	// Degree of the polynomial de-noising preprocessor; negative
	// disables preprocessing.
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
	if c.Window == 0 {
		c.Window = 6
	}
	if c.Hidden == 0 {
		c.Hidden = 3
	}
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
// samples, de-noised by a polynomial preprocessor and normalized by
// the signal capacity. Deployment is online: every new observation
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
	cfg    NeuralConfig
	net    *neural.MLP
	pre    neural.Preprocessor
	norm   neural.Normalizer
	window []float64 // normalized history, newest last
	seen   int
	// prevIn holds the input window that produced the previous
	// prediction, i.e. the training input once the actual arrives;
	// prevLast is the normalized last value of that window (the
	// baseline the residual is added to).
	prevIn   []float64
	prevLast float64
	havePre  bool
	// targetBuf is the reusable one-element training-target slice; the
	// network does not retain it across calls.
	targetBuf []float64
}

// NewNeural returns a neural predictor factory.
func NewNeural(cfg NeuralConfig) Factory {
	return func() Predictor {
		return MustNeural(cfg)
	}
}

// MustNeural builds a neural predictor, panicking on invalid
// configuration (the configs in this repository are static).
func MustNeural(cfg NeuralConfig) *Neural {
	c := cfg.withDefaults()
	r := xrand.New(c.Seed)
	net, err := neural.NewMLP(r, c.Window, c.Hidden, 1)
	if err != nil {
		panic(err)
	}
	norm, err := neural.NewNormalizer(c.Capacity)
	if err != nil {
		panic(err)
	}
	var pre neural.Preprocessor = neural.Identity{}
	if c.Degree >= 0 {
		// Pointer receiver: ProcessInto reuses the smoother's solver
		// scratch, so each Neural owns its preprocessor exclusively.
		pre = &neural.PolySmoother{Degree: c.Degree}
	}
	return &Neural{
		cfg:       c,
		net:       net,
		pre:       pre,
		norm:      norm,
		window:    make([]float64, 0, c.Window),
		prevIn:    make([]float64, c.Window),
		targetBuf: make([]float64, 1),
	}
}

// Name implements Predictor.
func (p *Neural) Name() string { return "Neural" }

// Observe implements Predictor.
func (p *Neural) Observe(v float64) {
	nv := p.norm.Norm(v)
	// Online training: the window that preceded this observation
	// should have predicted it. Training starts one sample after the
	// window first fills.
	if p.havePre && p.seen > p.cfg.Window {
		p.targetBuf[0] = (nv - p.prevLast) * p.cfg.OutputScale
		p.net.TrainClipped(p.prevIn, p.targetBuf, p.cfg.OnlineLearningRate, onlineMomentum, p.cfg.ErrorClip)
	}
	if len(p.window) == p.cfg.Window {
		copy(p.window, p.window[1:])
		p.window[len(p.window)-1] = nv
	} else {
		p.window = append(p.window, nv)
	}
	if p.seen < math.MaxInt { // a restored count can sit at the top
		p.seen++
	}
	if len(p.window) == p.cfg.Window {
		p.pre.ProcessInto(p.prevIn, p.window)
		p.prevLast = p.window[len(p.window)-1]
		p.havePre = true
	}
}

// Predict implements Predictor.
func (p *Neural) Predict() float64 {
	if p.seen == 0 {
		return 0
	}
	if !p.havePre {
		// Window not yet full: fall back to the last value.
		return p.norm.Denorm(p.window[len(p.window)-1])
	}
	return p.norm.Denorm(p.net.Forward(p.prevIn)[0]/p.cfg.OutputScale + p.prevLast)
}

// pretrain trains the network offline on the examples of every signal,
// in order: each smoothed, normalized window of Window samples, with
// the (scaled) step to the next sample as its target. The examples share
// one backing array; the first trainFraction of them (0.8 when out of
// range) form the training set and the rest the test set.
func (p *Neural) pretrain(signals [][]float64, trainFraction float64, cfg neural.TrainConfig) neural.TrainResult {
	w := p.cfg.Window
	count := 0
	for _, signal := range signals {
		count += max(len(signal)-w, 0)
	}
	if count == 0 {
		return neural.TrainResult{}
	}
	samples := make([]neural.Sample, 0, count)
	buf := make([]float64, count*(w+1))
	ins, targets := buf[:count*w], buf[count*w:]
	raw := make([]float64, w)
	for _, signal := range signals {
		for i := 0; i+w < len(signal); i++ {
			for j := 0; j < w; j++ {
				raw[j] = p.norm.Norm(signal[i+j])
			}
			k := len(samples)
			in := ins[k*w : (k+1)*w : (k+1)*w]
			p.pre.ProcessInto(in, raw)
			targets[k] = (p.norm.Norm(signal[i+w]) - p.norm.Norm(signal[i+w-1])) * p.cfg.OutputScale
			samples = append(samples, neural.Sample{In: in, Target: targets[k : k+1 : k+1]})
		}
	}
	if trainFraction <= 0 || trainFraction > 1 {
		trainFraction = 0.8
	}
	split := int(float64(len(samples)) * trainFraction)
	if split < 1 {
		split = 1
	}
	return p.net.Fit(samples[:split], samples[split:], cfg)
}
