// Command predeval evaluates the seven load-prediction algorithms on
// the eight Table I emulator data sets (the Fig. 5 experiment) or on a
// population-trace CSV produced by tracegen.
//
// Usage:
//
//	predeval                 # Fig. 5 on the emulator sets
//	predeval -trace t.csv    # evaluate on a trace's server groups
package main

import (
	"flag"
	"fmt"
	"os"

	"mmogdc/internal/experiments"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "evaluate on a CSV trace instead of the emulator sets")
		seed      = flag.Uint64("seed", 42, "random seed")
		quick     = flag.Bool("quick", false, "shrink the emulator workloads")
	)
	flag.Parse()

	if *traceFile == "" {
		out, err := experiments.Fig05(experiments.Options{Seed: *seed, Quick: *quick})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	f, err := os.Open(*traceFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	ds, err := trace.ReadCSV(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	zones := make([][]float64, len(ds.Groups))
	for i, g := range ds.Groups {
		zones[i] = g.Load.Values
	}
	fmt.Printf("%-24s %10s\n", "predictor", "error [%]")
	for _, bf := range predict.Baselines() {
		fmt.Printf("%-24s %10.3f\n", bf().Name(), predict.EvaluateZones(bf, zones))
	}
	nf, _ := predict.PretrainShared(predict.PaperNeuralConfig(*seed), zones, 0.8, predict.PaperTrainConfig(*seed+1))
	fmt.Printf("%-24s %10.3f\n", "Neural (pretrained)", predict.EvaluateZonesFromSecond(nf, zones))
}
