package predict

import (
	"math"

	"mmogdc/internal/neural"
)

// PretrainShared reproduces the paper's two offline phases for the
// per-sub-zone deployment (Section IV-C): the data-set collection
// phase gathers entity-count samples "for all sub-zones at equidistant
// time steps", and the training phase uses most of those samples as
// training sets and the rest as test sets, running training eras until
// the convergence criterion fires. One network is trained on the
// pooled samples of every sub-zone; the returned Factory hands each
// sub-zone a clone of the trained network that keeps adapting online.
//
// collected[z] is the collected signal of sub-zone z. A NaN or
// infinite sample is a gap in it: no example spans it, and the
// auto-calibrated Capacity and OutputScale skip it. The returned
// TrainResult reports the offline training outcome.
func PretrainShared(cfg NeuralConfig, collected [][]float64, trainFraction float64, tc neural.TrainConfig) (Factory, neural.TrainResult) {
	if cfg.Capacity == 0 {
		// Auto-calibrate the normalization to the collected signals so
		// the network operates in a well-scaled range.
		maxV := 1.0
		for _, signal := range collected {
			for _, v := range signal {
				if v > maxV && finite(v) {
					maxV = v
				}
			}
		}
		cfg.Capacity = maxV * 1.25
	}
	if cfg.OutputScale == 0 {
		// Auto-calibrate the target scale so the normalized deltas the
		// network regresses on have a healthy RMS (~0.5); without this
		// the gradients on small sub-zone signals are vanishingly weak.
		var ss float64
		var n int
		for _, signal := range collected {
			for i := 1; i < len(signal); i++ {
				if !finite(signal[i]) || !finite(signal[i-1]) {
					continue
				}
				d := (signal[i] - signal[i-1]) / cfg.Capacity
				ss += d * d
				n++
			}
		}
		if n > 0 && ss > 0 {
			rms := math.Sqrt(ss / float64(n))
			cfg.OutputScale = 0.5 / rms
			if cfg.OutputScale > 200 {
				cfg.OutputScale = 200
			}
			if cfg.OutputScale < 1 {
				cfg.OutputScale = 1
			}
		}
	}
	proto := MustNeural(cfg)
	res := proto.pretrain(collected, trainFraction, tc)
	factory := func() Predictor {
		p := newNeural(cfg)
		p.net = proto.net.Clone()
		return p
	}
	return factory, res
}
