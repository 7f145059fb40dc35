package predict

import (
	"math"
	"testing"

	"mmogdc/internal/neural"
)

func TestNeuralPriorAndWarmup(t *testing.T) {
	p := MustNeural(NeuralConfig{Seed: 1, Capacity: 100})
	if p.Predict() != 0 {
		t.Fatal("prior should be 0")
	}
	p.Observe(50)
	// Window not full: falls back to last value.
	if got := p.Predict(); got != 50 {
		t.Fatalf("warmup Predict = %v, want 50", got)
	}
}

func TestNeuralDeterministic(t *testing.T) {
	mk := func() []float64 {
		p := MustNeural(NeuralConfig{Seed: 7, Capacity: 100})
		out := make([]float64, 0, 50)
		for i := 0; i < 50; i++ {
			p.Observe(float64(30 + i%11))
			out = append(out, p.Predict())
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("neural diverged at step %d", i)
		}
	}
}

func TestNeuralNonNegativePredictions(t *testing.T) {
	p := MustNeural(NeuralConfig{Seed: 3, Capacity: 100})
	for i := 0; i < 200; i++ {
		p.Observe(float64(i%7) * 3)
		if got := p.Predict(); got < 0 {
			t.Fatalf("negative prediction %v at step %d", got, i)
		}
	}
}

func TestNeuralLearnsConstantSignal(t *testing.T) {
	p := MustNeural(NeuralConfig{Seed: 5, Capacity: 100})
	for i := 0; i < 400; i++ {
		p.Observe(60)
	}
	if got := p.Predict(); math.Abs(got-60) > 5 {
		t.Fatalf("constant-signal prediction = %v, want ~60", got)
	}
}

func TestNeuralTracksRamp(t *testing.T) {
	p := MustNeural(NeuralConfig{Seed: 9, Capacity: 2000})
	var lastErr float64
	for i := 0; i < 600; i++ {
		v := float64(i)
		pred := p.Predict()
		if i > 500 {
			lastErr += math.Abs(pred - v)
		}
		p.Observe(v)
	}
	lastErr /= 99
	// Late-ramp predictions should be within a few percent.
	if lastErr > 40 {
		t.Fatalf("ramp tracking error = %v", lastErr)
	}
}

func TestNeuralPretrainImprovesColdStart(t *testing.T) {
	// A periodic signal: pretrained network should beat a cold one on
	// the evaluation metric.
	signal := make([]float64, 720)
	for i := range signal {
		signal[i] = 1000 + 600*math.Sin(2*math.Pi*float64(i)/240)
	}
	cold := EvaluateZones(NewNeural(NeuralConfig{Seed: 11, Capacity: 2000}), [][]float64{signal})

	f, res := PretrainShared(NeuralConfig{Seed: 11, Capacity: 2000}, [][]float64{signal[:360]}, 0.8, neural.TrainConfig{MaxEras: 100})
	if res.Eras == 0 {
		t.Fatal("pretraining ran no eras")
	}
	warm := f()
	var errSum, valSum float64
	for i, v := range signal {
		if i > 0 {
			errSum += math.Abs(v - warm.Predict())
		}
		valSum += v
		warm.Observe(v)
	}
	warmErr := errSum / valSum * 100
	if warmErr >= cold {
		t.Fatalf("pretrained error %v should beat cold %v", warmErr, cold)
	}
}

func TestNeuralPretrainEmptySignal(t *testing.T) {
	cfg := NeuralConfig{Seed: 1, Capacity: 100}
	_, res := PretrainShared(cfg, nil, 0.8, neural.TrainConfig{})
	if res.Eras != 0 {
		t.Fatalf("empty pretrain ran %d eras", res.Eras)
	}
	_, res = PretrainShared(cfg, [][]float64{{1, 2, 3}}, 0.8, neural.TrainConfig{})
	if res.Eras != 0 {
		t.Fatal("too-short signal should produce no samples")
	}
}

func TestNeuralPretrainBadFraction(t *testing.T) {
	signal := make([]float64, 100)
	for i := range signal {
		signal[i] = float64(i % 10)
	}
	// Invalid fractions fall back to the default and still train.
	_, res := PretrainShared(NeuralConfig{Seed: 1, Capacity: 100}, [][]float64{signal}, -3, neural.TrainConfig{MaxEras: 5, Patience: 5})
	if res.Eras == 0 {
		t.Fatal("pretrain with clamped fraction ran no eras")
	}
}

func TestNeuralName(t *testing.T) {
	if MustNeural(NeuralConfig{Seed: 1, Capacity: 1}).Name() != "Neural" {
		t.Fatal("wrong name")
	}
}

func TestNeuralBeatsNaivePredictorsOnStructuredNoisySignal(t *testing.T) {
	// The headline claim of Section IV-D2: on signals with strong
	// short-term structure plus noise, the neural predictor achieves
	// lower error than the naive baselines. Build a signal with
	// nonlinear mean-reverting dynamics.
	state := uint64(99)
	rnd := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / (1 << 53)
	}
	signal := make([]float64, 1440)
	x := 500.0
	for i := range signal {
		// Mean-reverting around a slow sine with multiplicative kicks.
		target := 1000 + 500*math.Sin(2*math.Pi*float64(i)/720)
		x += 0.3*(target-x) + (rnd()-0.5)*120
		if x < 0 {
			x = 0
		}
		signal[i] = x
	}
	neuralErr := EvaluateZones(NewNeural(NeuralConfig{Seed: 13, Capacity: 2000, Degree: 1}), [][]float64{signal})
	avgErr := EvaluateZones(NewAverage(), [][]float64{signal})
	if neuralErr >= avgErr {
		t.Errorf("neural %v should beat average %v", neuralErr, avgErr)
	}
}
