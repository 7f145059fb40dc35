package neural_test

import (
	"fmt"

	"mmogdc/internal/neural"
	"mmogdc/internal/xrand"
)

// Training the paper's (6,3,1) perceptron in eras until the
// convergence criterion fires.
func ExampleMLP_Fit() {
	net := neural.NewMLP(xrand.New(1))

	// A toy target: y = average of the first two inputs.
	var train, test []neural.Row
	for i := 0; i < 64; i++ {
		var r neural.Row
		r.In[0], r.In[1] = float64(i%8)/8, float64(i/8)/8
		r.Target = (r.In[0] + r.In[1]) / 2
		if i%5 == 0 {
			test = append(test, r)
		} else {
			train = append(train, r)
		}
	}

	report := net.Fit(train, test, neural.TrainConfig{
		LearningRate: 0.1, MaxEras: 500, Patience: 20, ShuffleSeed: 7,
	})
	fmt.Printf("converged: %v, test loss below 0.001: %v\n",
		report.Converged, report.TestLoss < 0.001)
	// Output: converged: true, test loss below 0.001: true
}
