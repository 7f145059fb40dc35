package predict

import "mmogdc/internal/neural"

// PaperNeuralConfig returns the canonical configuration of the paper's
// neural predictor as reproduced in this repository: a (6,3,1) MLP
// over the last six samples, a degree-2 polynomial de-noising
// preprocessor, residual (delta) outputs with auto-calibrated scaling,
// Huber-clipped updates, and a gentle online learning rate for
// deployment-time adaptation.
func PaperNeuralConfig(seed uint64) NeuralConfig {
	return NeuralConfig{
		Seed:               seed,
		Degree:             2,
		LearningRate:       0.01,
		OnlineLearningRate: 0.002,
		ErrorClip:          0.25,
	}
}

// PaperTrainConfig returns the offline training-era configuration used
// by the experiments: shuffled eras with learning-rate decay and the
// patience-based convergence criterion.
func PaperTrainConfig(shuffleSeed uint64) neural.TrainConfig {
	return neural.TrainConfig{
		LearningRate:   0.01,
		Momentum:       0.5,
		MaxEras:        80,
		Patience:       10,
		MinImprovement: 1e-5,
		ShuffleSeed:    shuffleSeed,
		LRDecay:        0.05,
		ErrorClip:      0.25,
	}
}
