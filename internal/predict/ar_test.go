package predict

import (
	"math"
	"testing"
)

func TestARPriorAndFallback(t *testing.T) {
	p := NewAR(3, 10, 100)()
	if p.Predict() != 0 {
		t.Fatal("prior should be 0")
	}
	p.Observe(7)
	if p.Predict() != 7 {
		t.Fatalf("unfitted AR should fall back to last value, got %v", p.Predict())
	}
}

func TestARConstantSignal(t *testing.T) {
	p := NewAR(2, 5, 200)()
	for i := 0; i < 60; i++ {
		p.Observe(40)
	}
	if got := p.Predict(); math.Abs(got-40) > 1e-6 {
		t.Fatalf("constant-signal AR prediction = %v", got)
	}
}

func TestARLearnsAR1Process(t *testing.T) {
	// x_t = 0.8 x_{t-1} + noise around mean 100; the fitted AR should
	// beat last-value on the one-step error.
	state := uint64(7)
	rnd := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/(1<<53) - 0.5
	}
	signal := make([]float64, 2000)
	x := 0.0
	for i := range signal {
		x = 0.8*x + 20*rnd()
		signal[i] = 100 + x
	}
	arErr := EvaluateZones(NewAR(2, 50, 1000), [][]float64{signal})
	lvErr := EvaluateZones(NewLastValue(), [][]float64{signal})
	if arErr >= lvErr {
		t.Fatalf("AR error %v should beat last value %v on an AR(1) process", arErr, lvErr)
	}
}

func TestARPredictsSinusoidWell(t *testing.T) {
	// A pure sinusoid is an AR(2) process: the fitted model should
	// track it nearly perfectly after warm-up.
	signal := make([]float64, 1000)
	for i := range signal {
		signal[i] = 500 + 200*math.Sin(2*math.Pi*float64(i)/12)
	}
	p := NewAR(4, 30, 600)()
	var worst float64
	for i, v := range signal {
		if i > 300 {
			if d := math.Abs(p.Predict() - v); d > worst {
				worst = d
			}
		}
		p.Observe(v)
	}
	if worst > 20 {
		t.Fatalf("AR worst late error on sinusoid = %v", worst)
	}
}

func TestARHistoryBounded(t *testing.T) {
	f := NewAR(2, 10, 64)
	p := f().(*AR)
	for i := 0; i < 10000; i++ {
		p.Observe(float64(i % 13))
	}
	if len(p.history) > 64 {
		t.Fatalf("history grew to %d, cap 64", len(p.history))
	}
}

func TestARParameterClamping(t *testing.T) {
	p := NewAR(0, 0, 0)().(*AR)
	if p.order != 1 || p.refitInterval != 1 || p.maxHistory < 4 {
		t.Fatalf("clamped params = %+v", p)
	}
}

func TestARNonNegative(t *testing.T) {
	p := NewAR(3, 5, 100)()
	for i := 0; i < 200; i++ {
		p.Observe(math.Abs(math.Sin(float64(i))) * 3)
		if p.Predict() < 0 {
			t.Fatal("negative AR prediction")
		}
	}
}

func TestSeasonalNaive(t *testing.T) {
	p := NewSeasonalNaive(4)()
	if p.Predict() != 0 {
		t.Fatal("prior should be 0")
	}
	feed(p, 1, 2, 3)
	// Season not complete: last value.
	if p.Predict() != 3 {
		t.Fatalf("partial-season prediction = %v", p.Predict())
	}
	feed(p, 4)
	// Next step (index 4) maps to slot 0 -> value 1.
	if p.Predict() != 1 {
		t.Fatalf("seasonal prediction = %v, want 1", p.Predict())
	}
	feed(p, 10)
	// Next step (index 5) maps to slot 1 -> value 2.
	if p.Predict() != 2 {
		t.Fatalf("seasonal prediction = %v, want 2", p.Predict())
	}
}

func TestSeasonalNaivePerfectOnPeriodicSignal(t *testing.T) {
	const period = 24
	signal := make([]float64, period*20)
	for i := range signal {
		signal[i] = 100 + 50*math.Sin(2*math.Pi*float64(i)/period)
	}
	p := NewSeasonalNaive(period)()
	var errSum float64
	for i, v := range signal {
		if i >= period {
			errSum += math.Abs(p.Predict() - v)
		}
		p.Observe(v)
	}
	if errSum > 1e-6 {
		t.Fatalf("seasonal naive error on periodic signal = %v", errSum)
	}
}

func TestSeasonalNaivePeriodClamp(t *testing.T) {
	p := NewSeasonalNaive(0)()
	feed(p, 5, 9)
	if p.Predict() != 9 {
		t.Fatalf("period-1 seasonal naive should track last value, got %v", p.Predict())
	}
}
