package predict_test

import (
	"fmt"

	"mmogdc/internal/predict"
)

// The basic predictor protocol: Observe the current sample, Predict
// the next one.
func ExamplePredictor() {
	p := predict.NewExpSmoothing(0.5, "Exp. smoothing 50%")()
	for _, load := range []float64{100, 120, 110, 130} {
		p.Observe(load)
	}
	fmt.Printf("%s forecasts %.1f players\n", p.Name(), p.Predict())
	// Output: Exp. smoothing 50% forecasts 120.0 players
}

// One predictor per sub-zone, with the whole-world forecast as the sum
// of the sub-zone predictions (Section IV-B).
func ExampleZoneSet() {
	zones := predict.NewZoneSet(predict.NewLastValue(), 3)
	_ = zones.Observe([]float64{40, 25, 10})
	_ = zones.Observe([]float64{42, 27, 9})
	each := zones.PredictEachInto(nil)
	world := 0.0
	for _, v := range each {
		world += v
	}
	fmt.Printf("per-zone: %v\n", each)
	fmt.Printf("world: %v\n", world)
	// Output:
	// per-zone: [42 27 9]
	// world: 78
}

// Evaluating an algorithm with the paper's prediction-error metric:
// the sum of absolute one-step errors over the total volume.
func ExampleEvaluateZones() {
	signal := []float64{10, 20, 30}
	errPct := predict.EvaluateZones(predict.NewLastValue(), [][]float64{signal})
	fmt.Printf("last value error: %.1f%%\n", errPct)
	// Output: last value error: 33.3%
}
