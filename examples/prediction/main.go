// Prediction: train and deploy the paper's neural load predictor.
//
// The example reproduces the predictor workflow of Section IV on one
// emulated game world: collect per-sub-zone entity counts from an
// earlier observation day, train the (6,3,1) network in eras until the
// convergence criterion fires, then predict a fresh day one step ahead
// and compare against the six classical baselines.
//
//	go run ./examples/prediction
package main

import (
	"fmt"

	"mmogdc/internal/emulator"
	"mmogdc/internal/predict"
)

func main() {
	// The game world: Table I "Set 2" — a fast-paced, aggressive
	// population with high instantaneous dynamics.
	cfg := emulator.TableIConfigs()[1]

	// Offline phase 1 — data-set collection: observe an earlier day of
	// the same game (same configuration, different randomness).
	collectCfg := cfg
	collectCfg.Seed += 1000
	collected := zonesOf(emulator.Run(collectCfg))

	// Offline phase 2 — era-based training on the pooled sub-zone
	// samples, with the polynomial preprocessor and the convergence
	// criterion of Section IV-C.
	ncfg := predict.PaperNeuralConfig(7)
	ncfg.Degree = -1 // raw windows suit the emulator's zone signals
	neural, report := predict.PretrainShared(ncfg, collected, 0.8, predict.PaperTrainConfig(11))
	fmt.Printf("offline training: %d eras, test loss %.4f, converged=%v\n\n",
		report.Eras, report.TestLoss, report.Converged)

	// Deployment: predict a fresh day of the same game, per sub-zone,
	// one step (two minutes) ahead.
	zones := zonesOf(emulator.Run(cfg))

	fmt.Printf("%-24s %10s\n", "predictor", "error [%]")
	fmt.Printf("%-24s %10.2f\n", "Neural", predict.EvaluateZonesFromSecond(neural, zones))
	for _, f := range predict.Baselines() {
		fmt.Printf("%-24s %10.2f\n", f().Name(), predict.EvaluateZonesFromSecond(f, zones))
	}
	fmt.Println("\nerror = sum of per-sample absolute prediction errors over the total player")
	fmt.Println("volume (Section IV-D2). Lower is better.")
}

func zonesOf(ds *emulator.DataSet) [][]float64 {
	out := make([][]float64, len(ds.Zones))
	for z, s := range ds.Zones {
		out[z] = s.Values
	}
	return out
}
