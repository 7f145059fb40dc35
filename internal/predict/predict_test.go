package predict

import (
	"math"
	"testing"
	"testing/quick"
)

func feed(p Predictor, xs ...float64) {
	for _, x := range xs {
		p.Observe(x)
	}
}

func TestLastValue(t *testing.T) {
	p := NewLastValue()()
	if p.Predict() != 0 {
		t.Fatal("prior should be 0")
	}
	feed(p, 5, 9)
	if p.Predict() != 9 {
		t.Fatalf("Predict = %v", p.Predict())
	}
}

func TestAverage(t *testing.T) {
	p := NewAverage()()
	if p.Predict() != 0 {
		t.Fatal("prior should be 0")
	}
	feed(p, 2, 4, 6)
	if p.Predict() != 4 {
		t.Fatalf("Predict = %v", p.Predict())
	}
}

func TestMovingAverage(t *testing.T) {
	p := NewMovingAverage(3)()
	if p.Predict() != 0 {
		t.Fatal("prior should be 0")
	}
	feed(p, 1, 2)
	if p.Predict() != 1.5 {
		t.Fatalf("partial window Predict = %v", p.Predict())
	}
	feed(p, 3, 10)
	// Window is now {2, 3, 10}.
	if got := p.Predict(); got != 5 {
		t.Fatalf("full window Predict = %v", got)
	}
}

func TestMovingAverageWindowClamp(t *testing.T) {
	p := NewMovingAverage(0)()
	feed(p, 7, 9)
	if p.Predict() != 9 {
		t.Fatalf("window-1 moving average should track last value, got %v", p.Predict())
	}
}

func TestExpSmoothing(t *testing.T) {
	p := NewExpSmoothing(0.5, "Exp. smoothing 50%")()
	if p.Predict() != 0 {
		t.Fatal("prior should be 0")
	}
	feed(p, 10)
	if p.Predict() != 10 {
		t.Fatalf("first observation should initialize the state, got %v", p.Predict())
	}
	feed(p, 20)
	if p.Predict() != 15 {
		t.Fatalf("Predict = %v, want 15", p.Predict())
	}
	if p.Name() != "Exp. smoothing 50%" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestExpSmoothingAlphaExtremes(t *testing.T) {
	hi := NewExpSmoothing(1.0, "hi")()
	feed(hi, 3, 8)
	if hi.Predict() != 8 {
		t.Fatalf("alpha=1 should track last value, got %v", hi.Predict())
	}
	lo := NewExpSmoothing(0.0, "lo")()
	feed(lo, 3, 8, 100)
	if lo.Predict() != 3 {
		t.Fatalf("alpha=0 should keep the first value, got %v", lo.Predict())
	}
}

func TestSlidingWindowMedian(t *testing.T) {
	p := NewSlidingWindowMedian(3)()
	if p.Predict() != 0 {
		t.Fatal("prior should be 0")
	}
	feed(p, 5)
	if p.Predict() != 5 {
		t.Fatalf("single-sample median = %v", p.Predict())
	}
	feed(p, 1)
	if p.Predict() != 3 {
		t.Fatalf("two-sample median = %v", p.Predict())
	}
	feed(p, 9)
	if p.Predict() != 5 {
		t.Fatalf("median{5,1,9} = %v", p.Predict())
	}
	feed(p, 9)
	if p.Predict() != 9 {
		t.Fatalf("median{1,9,9} = %v", p.Predict())
	}
}

func TestSlidingWindowMedianPredictDoesNotMutate(t *testing.T) {
	p := NewSlidingWindowMedian(4)()
	feed(p, 4, 1, 3, 2)
	first := p.Predict()
	second := p.Predict()
	if first != second {
		t.Fatalf("consecutive Predict calls differ: %v vs %v", first, second)
	}
	feed(p, 10)
	// Window {1,3,2,10} -> median 2.5.
	if got := p.Predict(); got != 2.5 {
		t.Fatalf("median after rotation = %v", got)
	}
}

func TestBaselinesRoster(t *testing.T) {
	bs := Baselines()
	if len(bs) != 7 {
		t.Fatalf("want 7 baseline factories, got %d", len(bs))
	}
	names := map[string]bool{}
	for _, f := range bs {
		n := f().Name()
		if names[n] {
			t.Errorf("duplicate baseline name %q", n)
		}
		names[n] = true
	}
	for _, want := range []string{"Average", "Moving average", "Last value",
		"Exp. smoothing 25%", "Exp. smoothing 50%", "Exp. smoothing 75%",
		"Sliding window median"} {
		if !names[want] {
			t.Errorf("missing baseline %q", want)
		}
	}
}

func TestFactoriesReturnFreshInstances(t *testing.T) {
	for _, f := range Baselines() {
		a, b := f(), f()
		a.Observe(100)
		if b.Predict() != 0 {
			t.Errorf("%s: factory instances share state", a.Name())
		}
	}
}

func TestPredictionsBoundedByObservedRange(t *testing.T) {
	// Every baseline's prediction must stay within the observed range
	// (they are all convex combinations or order statistics).
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			xs = append(xs, v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(xs) == 0 {
			return true
		}
		for _, f := range Baselines() {
			p := f()
			feed(p, xs...)
			got := p.Predict()
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestConstantSignalPerfectlyPredicted(t *testing.T) {
	signal := make([]float64, 50)
	for i := range signal {
		signal[i] = 42
	}
	for _, f := range Baselines() {
		if e := EvaluateZones(f, [][]float64{signal}); e > 1e-9 {
			t.Errorf("%s: error on constant signal = %v", f().Name(), e)
		}
	}
}

func TestHoltTracksRampPerfectly(t *testing.T) {
	// On a pure linear ramp, Holt's forecast becomes exact while
	// single exponential smoothing lags.
	p := NewHolt(0.5, 0.5)()
	var lastErr float64
	for i := 0; i < 200; i++ {
		v := float64(10 + 3*i)
		if i > 100 {
			lastErr = v - p.Predict()
			if lastErr < 0 {
				lastErr = -lastErr
			}
			if lastErr > 1e-6 {
				t.Fatalf("Holt lags a ramp at step %d by %v", i, lastErr)
			}
		}
		p.Observe(v)
	}
}

func TestHoltPriorAndWarmup(t *testing.T) {
	p := NewHolt(0.5, 0.3)()
	if p.Predict() != 0 {
		t.Fatal("prior should be 0")
	}
	feed(p, 10)
	if p.Predict() != 10 {
		t.Fatalf("single-sample forecast = %v", p.Predict())
	}
	feed(p, 14)
	// Level 14, trend 4 -> forecast 18.
	if p.Predict() != 18 {
		t.Fatalf("two-sample forecast = %v, want 18", p.Predict())
	}
}

func TestHoltNonNegative(t *testing.T) {
	p := NewHolt(0.8, 0.8)()
	feed(p, 100, 10) // steep decline -> big negative trend
	if p.Predict() < 0 {
		t.Fatal("Holt forecast went negative")
	}
}

func TestHoltBeatsExpSmoothingOnRamp(t *testing.T) {
	signal := make([]float64, 300)
	for i := range signal {
		signal[i] = 50 + 2*float64(i)
	}
	holt := EvaluateZones(NewHolt(0.5, 0.3), [][]float64{signal})
	single := EvaluateZones(NewExpSmoothing(0.5, "e"), [][]float64{signal})
	if holt >= single {
		t.Fatalf("Holt %v should beat single smoothing %v on a ramp", holt, single)
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"lastvalue":    "Last value",
		"average":      "Average",
		"movingavg":    "Moving average",
		"median":       "Sliding window median",
		"expsmoothing": "Exp. smoothing 50%",
	} {
		f := ByName(name)
		if f == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if got := f().Name(); got != want {
			t.Errorf("ByName(%q) builds %q, want %q", name, got, want)
		}
	}
	for _, name := range []string{"neural", "LastValue", ""} {
		if ByName(name) != nil {
			t.Errorf("ByName(%q) is not nil", name)
		}
	}
}
