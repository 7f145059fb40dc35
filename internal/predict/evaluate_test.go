package predict

import (
	"math"
	"testing"
)

// EvaluateZones replays a multi-zone signal through one predictor per
// zone (the per-sub-zone structure of Section IV-B) and returns the
// paper's prediction-error metric (Section IV-D2): the ratio between
// the sum of un-normalized sample prediction errors |x_t - p_t| across
// all zones and steps and the sum of all samples, as a percentage. The
// first step has no prediction and is excluded from the errors, but its
// samples count in the volume. The tests keep it as the metric's plain
// form; shipped code scores with EvaluateZonesFromSecond.
func EvaluateZones(f Factory, zones [][]float64) float64 {
	if len(zones) == 0 {
		return 0
	}
	ps := make([]Predictor, len(zones))
	for i := range ps {
		ps[i] = f()
	}
	n := len(zones[0])
	var errSum, valSum float64
	for t := 0; t < n; t++ {
		for z, sig := range zones {
			v := sig[t]
			if t > 0 {
				d := v - ps[z].Predict()
				if d < 0 {
					d = -d
				}
				errSum += d
			}
			valSum += v
			ps[z].Observe(v)
		}
	}
	if valSum == 0 {
		return 0
	}
	return errSum / valSum * 100
}

func TestEvaluateLastValueKnown(t *testing.T) {
	// Signal 10, 20, 30: last-value predicts 10 then 20; errors are
	// 10 + 10 = 20 over a volume of 60 -> 33.33%.
	got := EvaluateZones(NewLastValue(), [][]float64{{10, 20, 30}})
	if math.Abs(got-100.0/3) > 1e-9 {
		t.Fatalf("error = %v, want 33.33", got)
	}
}

func TestEvaluateZeroVolume(t *testing.T) {
	if got := EvaluateZones(NewLastValue(), [][]float64{{0, 0, 0}}); got != 0 {
		t.Fatalf("zero-volume error = %v", got)
	}
	if got := EvaluateZones(NewLastValue(), [][]float64{nil}); got != 0 {
		t.Fatalf("empty-signal error = %v", got)
	}
}

func TestEvaluateZonesMatchesSingleZone(t *testing.T) {
	sig := []float64{5, 8, 2, 9, 4, 7}
	// Copies of one zone multiply both sums alike and leave the ratio.
	single := EvaluateZones(NewMovingAverage(3), [][]float64{sig})
	multi := EvaluateZones(NewMovingAverage(3), [][]float64{sig, sig, sig})
	if math.Abs(single-multi) > 1e-9 {
		t.Fatalf("single %v != zones %v", single, multi)
	}
	if EvaluateZones(NewLastValue(), nil) != 0 {
		t.Fatal("no zones should give 0")
	}
}

func TestEvaluateZonesAggregates(t *testing.T) {
	// Two zones: one constant (perfectly predicted), one alternating.
	constant := []float64{10, 10, 10, 10}
	jumpy := []float64{0, 10, 0, 10}
	err2 := EvaluateZones(NewLastValue(), [][]float64{constant, jumpy})
	// Last value on jumpy: errors 10, 10, 10 = 30. Volume = 40 + 20.
	want := 30.0 / 60 * 100
	if math.Abs(err2-want) > 1e-9 {
		t.Fatalf("aggregate error = %v, want %v", err2, want)
	}
}

func TestZoneSet(t *testing.T) {
	z := NewZoneSet(NewLastValue(), 3)
	if z.Len() != 3 {
		t.Fatalf("Len = %d", z.Len())
	}
	if err := z.Observe([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	each := z.PredictEachInto(nil)
	if each[0] != 1 || each[1] != 2 || each[2] != 3 {
		t.Fatalf("PredictEachInto = %v", each)
	}
	if err := z.Observe([]float64{1}); err == nil {
		t.Fatal("wrong zone count should error")
	}
}

func TestEvaluateSmootherBeatsLastValueOnNoise(t *testing.T) {
	// For pure i.i.d. noise around a level, averaging beats last-value.
	sig := make([]float64, 500)
	state := uint64(12345)
	for i := range sig {
		state = state*6364136223846793005 + 1442695040888963407
		sig[i] = 100 + float64(state%21) - 10
	}
	lv := EvaluateZones(NewLastValue(), [][]float64{sig})
	avg := EvaluateZones(NewAverage(), [][]float64{sig})
	if avg >= lv {
		t.Fatalf("average %v should beat last value %v on stationary noise", avg, lv)
	}
}

func TestEvaluateHorizonOneMatchesEvaluateRegion(t *testing.T) {
	// At h=1 the horizon evaluator scores the same forecasts as
	// EvaluateZones, just normalized over the scored region.
	sig := []float64{10, 20, 30, 25, 35, 40}
	h1 := EvaluateHorizon(NewLastValue(), sig, 1)
	// Hand-computed: predictions 10,20,30,25,35 vs 20,30,25,35,40.
	// errors 10+10+5+10+5 = 40 over volume 150.
	want := 40.0 / 150 * 100
	if math.Abs(h1-want) > 1e-9 {
		t.Fatalf("h=1 error = %v, want %v", h1, want)
	}
}

func TestEvaluateHorizonGrowsWithH(t *testing.T) {
	// On a random-walk-ish signal, farther horizons are harder.
	state := uint64(3)
	sig := make([]float64, 400)
	x := 100.0
	for i := range sig {
		state = state*6364136223846793005 + 1442695040888963407
		x += float64(state%21) - 10
		if x < 1 {
			x = 1
		}
		sig[i] = x
	}
	e1 := EvaluateHorizon(NewLastValue(), sig, 1)
	e5 := EvaluateHorizon(NewLastValue(), sig, 5)
	if e5 <= e1 {
		t.Fatalf("h=5 error %v should exceed h=1 error %v", e5, e1)
	}
}

func TestEvaluateHorizonEdgeCases(t *testing.T) {
	if EvaluateHorizon(NewLastValue(), []float64{1, 2}, 5) != 0 {
		t.Fatal("signal shorter than horizon should score 0")
	}
	if EvaluateHorizon(NewLastValue(), nil, 0) != 0 {
		t.Fatal("empty signal should score 0")
	}
	// h<1 clamps to 1.
	sig := []float64{10, 20, 30}
	if EvaluateHorizon(NewLastValue(), sig, 0) != EvaluateHorizon(NewLastValue(), sig, 1) {
		t.Fatal("h=0 should behave like h=1")
	}
}

func TestEvaluateHorizonHoltBeatsLastValueOnRamp(t *testing.T) {
	// Multi-step forecasts magnify the trend advantage: Holt
	// extrapolates the slope h steps out, last-value cannot.
	sig := make([]float64, 300)
	for i := range sig {
		sig[i] = 100 + 3*float64(i)
	}
	holt := EvaluateHorizon(NewHolt(0.5, 0.3), sig, 5)
	lv := EvaluateHorizon(NewLastValue(), sig, 5)
	if holt >= lv/2 {
		t.Fatalf("Holt h=5 error %v should be far below last value %v", holt, lv)
	}
}
