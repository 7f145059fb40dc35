// Command predeval evaluates the seven load-prediction algorithms on
// the eight Table I emulator data sets (the Fig. 5 experiment) or on a
// population-trace CSV produced by tracegen.
//
// Usage:
//
//	predeval                 # Fig. 5 on the emulator sets
//	predeval -trace t.csv    # evaluate on a trace's server groups
//
// On a trace, the neural predictor is pretrained on the first half of
// each server group's samples, and every predictor is scored on the
// second half with predict.EvaluateZonesFromSecond.
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
	split, rows := scoreTrace(zones, *seed)
	fmt.Printf("# %d server groups: neural pretrained on samples [0, %d), every row scored on [%d, %d)\n",
		len(zones), split, split, len(zones[0]))
	fmt.Printf("%-24s %10s\n", "predictor", "error [%]")
	for _, r := range rows {
		fmt.Printf("%-24s %10.3f\n", r.name, r.errPct)
	}
}

// row is one predictor's line of the trace table.
type row struct {
	name   string
	errPct float64
}

// scoreTrace splits each group's samples at the same index, half of the
// first group's length: it pretrains the neural predictor on the first
// halves and scores the baselines, then the neural predictor, on the
// second halves, so that no row is scored on what it trained on. It
// returns the split index and the rows.
func scoreTrace(zones [][]float64, seed uint64) (split int, rows []row) {
	if len(zones) > 0 {
		split = len(zones[0]) / 2
	}
	train := make([][]float64, len(zones))
	test := make([][]float64, len(zones))
	for i, z := range zones {
		train[i], test[i] = z[:split], z[split:]
	}
	for _, bf := range predict.Baselines() {
		rows = append(rows, row{bf().Name(), predict.EvaluateZonesFromSecond(bf, test)})
	}
	nf, _ := predict.PretrainShared(predict.PaperNeuralConfig(seed), train, 0.8, predict.PaperTrainConfig(seed+1))
	return split, append(rows, row{"Neural (pretrained)", predict.EvaluateZonesFromSecond(nf, test)})
}
