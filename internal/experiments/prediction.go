package experiments

import (
	"fmt"
	"strings"

	"mmogdc/internal/emulator"
	"mmogdc/internal/predict"
	"mmogdc/internal/stats"
)

// emulatorZones runs an emulator configuration and extracts the
// per-sub-zone signals.
func emulatorZones(cfg emulator.Config) [][]float64 {
	ds := emulator.Run(cfg)
	zones := make([][]float64, len(ds.Zones))
	for z, s := range ds.Zones {
		zones[z] = s.Values
	}
	return zones
}

// fig5Sets returns the Table I configurations, shrunk in Quick mode.
func fig5Sets(o Options) []emulator.Config {
	cfgs := emulator.TableIConfigs()
	if o.Quick {
		cfgs = cfgs[:3]
		for i := range cfgs {
			cfgs[i].Steps = 240
			cfgs[i].GridW, cfgs[i].GridH = 8, 8
			cfgs[i].Entities = 600
		}
	}
	return cfgs
}

// Fig05 reproduces Figure 5: the prediction error of the neural
// predictor and the six simple algorithms (exponential smoothing at
// three factors) on the eight emulated data sets.
//
// Protocol: for each set, the neural predictor first runs the paper's
// two offline phases — data collection on an earlier day of the same
// game (same configuration, different seed) and era-based training to
// convergence — then every algorithm predicts the deployment day
// one step ahead, per sub-zone.
func Fig05(o Options) (string, error) {
	opts := o.withDefaults()
	cfgs := fig5Sets(opts)

	names := []string{"Neural"}
	for _, f := range predict.Baselines() {
		names = append(names, f().Name())
	}
	errs := make([][]float64, len(names))

	for ci, cfg := range cfgs {
		collectCfg := cfg
		collectCfg.Seed += 1000
		collected := emulatorZones(collectCfg)
		zones := emulatorZones(cfg)

		tc := predict.PaperTrainConfig(opts.Seed + uint64(ci))
		if opts.Quick {
			tc.MaxEras = 15
		}
		ncfg := predict.PaperNeuralConfig(opts.Seed + 7)
		ncfg.Degree = -1 // raw windows work best on the emulator's zone signals
		neural, _ := predict.PretrainShared(ncfg, collected, 0.8, tc)

		factories := append([]predict.Factory{neural}, predict.Baselines()...)
		for fi, f := range factories {
			errs[fi] = append(errs[fi], predict.EvaluateZonesFromSecond(f, zones))
		}
	}

	var b strings.Builder
	b.WriteString("Figure 5 — prediction error [%] per algorithm and data set\n\n")
	header := []string{"predictor"}
	for i := range cfgs {
		header = append(header, fmt.Sprintf("Set %d", i+1))
	}
	var rows [][]string
	for fi, name := range names {
		row := []string{name}
		for _, e := range errs[fi] {
			row = append(row, f2(e))
		}
		rows = append(rows, row)
	}
	b.WriteString(table(header, rows))

	// The claims of Section IV-D2, quantified.
	b.WriteString("\n")
	if len(cfgs) == 8 {
		meanOf := func(fi int, sets ...int) float64 {
			var s float64
			for _, i := range sets {
				s += errs[fi][i]
			}
			return s / float64(len(sets))
		}
		neuralTypeI := meanOf(0, 1, 2, 3)
		lastIdx := 0
		for i, n := range names {
			if n == "Last value" {
				lastIdx = i
			}
		}
		lvTypeI := meanOf(lastIdx, 1, 2, 3)
		fmt.Fprintf(&b, "Type I sets (high instantaneous dynamics): neural %.2f%% vs last value %.2f%% (neural %.0f%% better)\n",
			neuralTypeI, lvTypeI, (1-neuralTypeI/lvTypeI)*100)
		var neuralMean, bestBaseline float64
		bestName := ""
		for fi, name := range names {
			m := meanOf(fi, 0, 1, 2, 3, 4, 5, 6, 7)
			if fi == 0 {
				neuralMean = m
				continue
			}
			if bestName == "" || m < bestBaseline {
				bestBaseline, bestName = m, name
			}
		}
		fmt.Fprintf(&b, "Across all sets: neural mean %.2f%% vs best baseline (%s) %.2f%%\n",
			neuralMean, bestName, bestBaseline)
	}
	return b.String(), nil
}

// Fig06 reproduces Figure 6: the statistical properties of the time to
// make one prediction. One "prediction" is the full per-sample path —
// ingesting the new observation (including the neural predictor's
// signal preprocessing and online weight update) and producing the
// next-step forecast — matching the deployed per-tick cost.
func Fig06(o Options) (string, error) {
	opts := o.withDefaults()
	cfg := fig5Sets(opts)[0]
	zones := emulatorZones(cfg)
	// Time on one representative hot sub-zone signal, repeated for
	// sample volume.
	signal := zones[0]
	for _, z := range zones[1:] {
		if stats.Mean(z) > stats.Mean(signal) {
			signal = z
		}
	}
	repeat := 10
	if opts.Quick {
		repeat = 2
	}
	long := make([]float64, 0, len(signal)*repeat)
	for i := 0; i < repeat; i++ {
		long = append(long, signal...)
	}

	methods := []struct {
		name string
		f    predict.Factory
	}{
		{"Neural", predict.NewNeural(predict.PaperNeuralConfig(opts.Seed))},
		{"Sliding window", predict.NewSlidingWindowMedian(predict.DefaultWindow)},
		{"Moving average", predict.NewMovingAverage(predict.DefaultWindow)},
		{"Average", predict.NewAverage()},
		{"Exp smoothing", predict.NewExpSmoothing(0.5, "Exp. smoothing 50%")},
		{"Last value", predict.NewLastValue()},
	}

	var b strings.Builder
	b.WriteString("Figure 6 — time to make one prediction [µs] (min / Q1 / median / Q3 / max)\n\n")
	var rows [][]string
	var neuralMedian, fastestMedian float64
	for mi, m := range methods {
		s, err := timeFullPrediction(m.f, long)
		if err != nil {
			return "", err
		}
		if mi == 0 {
			neuralMedian = s.Median
		}
		if fastestMedian == 0 || s.Median < fastestMedian {
			fastestMedian = s.Median
		}
		rows = append(rows, []string{m.name,
			f3(s.Min), f3(s.Q1), f3(s.Median), f3(s.Q3), f3(s.Max)})
	}
	b.WriteString(table([]string{"method", "min", "Q1", "median", "Q3", "max"}, rows))
	fmt.Fprintf(&b, "\nNeural median %.3f µs — the slowest method but still microsecond-scale, i.e. fast\n", neuralMedian)
	fmt.Fprintf(&b, "enough for per-2-minute predictions across thousands of sub-zones (paper: ~7 µs).\n")
	return b.String(), nil
}

// timeFullPrediction measures Observe+Predict per sample, in µs.
func timeFullPrediction(f predict.Factory, signal []float64) (stats.FiveNum, error) {
	p := f()
	durations := make([]float64, 0, len(signal))
	for _, v := range signal {
		start := nowNano()
		p.Observe(v)
		_ = p.Predict()
		durations = append(durations, float64(nowNano()-start)/1e3)
	}
	return stats.Summary(durations)
}
