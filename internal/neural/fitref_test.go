package neural

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"mmogdc/internal/xrand"
)

// refFit is Fit in index order: each era shuffles a slice of sample
// indices and trains on train[order[k]]. It is kept as the reference
// the row-block Fit must match bit for bit.
func refFit(m *MLP, train, test []Sample, cfg TrainConfig) TrainResult {
	c := cfg.withDefaults()
	res := TrainResult{}
	if len(train) == 0 {
		return res
	}
	var shuffler *xrand.Rand
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	if c.ShuffleSeed != 0 {
		shuffler = xrand.New(c.ShuffleSeed)
	}
	best := math.Inf(1)
	bad := 0
	for era := 0; era < c.MaxEras; era++ {
		if shuffler != nil {
			shuffler.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		lr := c.LearningRate / (1 + c.LRDecay*float64(era))
		var trainLoss float64
		for _, idx := range order {
			s := train[idx]
			trainLoss += m.TrainClipped(s.In, s.Target, lr, c.Momentum, c.ErrorClip)
		}
		trainLoss /= float64(len(train))
		testLoss := trainLoss
		if len(test) > 0 {
			testLoss = m.Loss(test)
		}
		res.Eras = era + 1
		res.TrainLoss = trainLoss
		res.TestLoss = testLoss
		if testLoss < best*(1-c.MinImprovement) {
			best = testLoss
			bad = 0
		} else {
			bad++
			if bad >= c.Patience {
				res.Converged = true
				break
			}
		}
	}
	return res
}

// randomSamples draws n samples of the given widths, each with its own
// input and target slices.
func randomSamples(r *xrand.Rand, n, in, out int) []Sample {
	s := make([]Sample, n)
	for k := range s {
		s[k].In = make([]float64, in)
		for i := range s[k].In {
			s[k].In[i] = r.Float64()
		}
		s[k].Target = make([]float64, out)
		for j := range s[k].Target {
			s[k].Target[j] = r.Norm(0, 0.5)
		}
	}
	return s
}

// sameResult reports whether two training results are equal, comparing
// the losses by their bits.
func sameResult(a, b TrainResult) bool {
	return a.Eras == b.Eras && a.Converged == b.Converged &&
		math.Float64bits(a.TrainLoss) == math.Float64bits(b.TrainLoss) &&
		math.Float64bits(a.TestLoss) == math.Float64bits(b.TestLoss)
}

// TestFitMatchesIndexedReference trains twin networks with Fit and with
// refFit over layer shapes whose input and target fill exactly one
// 64-byte line (6,3,1), less than one (1,2,1) and more than one
// (9,5,3), on 1, 2, 7 and 1,000 samples, with and without shuffling,
// error clipping, learning-rate decay and a test set. Each result must
// equal the reference's and each network must snapshot to the same
// bytes, and Fit must leave the samples it was handed as they were.
func TestFitMatchesIndexedReference(t *testing.T) {
	for _, shape := range [][]int{{6, 3, 1}, {1, 2, 1}, {9, 5, 3}} {
		for _, n := range []int{1, 2, 7, 1000} {
			r := xrand.New(uint64(100*n + len(shape)))
			in, out := shape[0], shape[len(shape)-1]
			train := randomSamples(r, n, in, out)
			test := randomSamples(r, n/4+1, in, out)
			for variant := 0; variant < 16; variant++ {
				cfg := TrainConfig{MaxEras: 25, Patience: 6}
				if variant&1 != 0 {
					cfg.ShuffleSeed = uint64(7 + n)
				}
				if variant&2 != 0 {
					cfg.ErrorClip = 0.25
				}
				if variant&4 != 0 {
					cfg.LRDecay = 0.05
				}
				var ts []Sample
				if variant&8 != 0 {
					ts = test
				}
				name := fmt.Sprintf("%v/n=%d/variant=%d", shape, n, variant)
				a, err := NewMLP(xrand.New(uint64(variant+1)), shape...)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := NewMLP(xrand.New(uint64(variant+1)), shape...)
				before := fmt.Sprint(train, ts)
				got := a.Fit(train, ts, cfg)
				want := refFit(b, train, ts, cfg)
				if !sameResult(got, want) {
					t.Fatalf("%s: Fit %+v, reference %+v", name, got, want)
				}
				if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
					t.Fatalf("%s: snapshot differs from the reference's", name)
				}
				if fmt.Sprint(train, ts) != before {
					t.Fatalf("%s: Fit changed its samples", name)
				}
			}
		}
	}
}
