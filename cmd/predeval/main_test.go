package main

import (
	"math"
	"testing"

	"mmogdc/internal/predict"
)

// TestScoreTraceScoresSecondHalves checks the trace table's split: every
// row, the pretrained neural one included, is
// predict.EvaluateZonesFromSecond over the second half of each group,
// and the neural predictor is pretrained on the first halves only.
func TestScoreTraceScoresSecondHalves(t *testing.T) {
	zones := make([][]float64, 3)
	for z := range zones {
		zones[z] = make([]float64, 301)
		for i := range zones[z] {
			zones[z][i] = 500 + 300*math.Sin(2*math.Pi*float64(i+40*z)/120) + float64(i%7)
		}
	}
	split, rows := scoreTrace(zones, 42)
	if split != 150 {
		t.Fatalf("split at %d, want 150", split)
	}
	train := make([][]float64, len(zones))
	test := make([][]float64, len(zones))
	for i, z := range zones {
		train[i], test[i] = z[:split], z[split:]
	}
	nf, _ := predict.PretrainShared(predict.PaperNeuralConfig(42), train, 0.8, predict.PaperTrainConfig(43))
	want := []row{}
	for _, bf := range predict.Baselines() {
		want = append(want, row{bf().Name(), predict.EvaluateZonesFromSecond(bf, test)})
	}
	want = append(want, row{"Neural (pretrained)", predict.EvaluateZonesFromSecond(nf, test)})
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.name != want[i].name || math.Float64bits(r.errPct) != math.Float64bits(want[i].errPct) {
			t.Errorf("row %d = %s %v, want %s %v", i, r.name, r.errPct, want[i].name, want[i].errPct)
		}
	}
}
