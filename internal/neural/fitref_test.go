package neural

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"mmogdc/internal/xrand"
)

// refFit is Fit in index order: each era shuffles a slice of row
// indices and trains on train[order[k]]. It is kept as the reference
// the row-copying Fit must match bit for bit.
func refFit(m *MLP, train, test []Row, cfg TrainConfig) TrainResult {
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
			r := &train[idx]
			trainLoss += m.TrainClipped(r.In[:], []float64{r.Target}, lr, c.Momentum, c.ErrorClip)
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

// randomRows draws n rows of uniform inputs and normal targets.
func randomRows(r *xrand.Rand, n int) []Row {
	rows := make([]Row, n)
	for k := range rows {
		for i := range rows[k].In {
			rows[k].In[i] = r.Float64()
		}
		rows[k].Target = r.Norm(0, 0.5)
	}
	return rows
}

// sameResult reports whether two training results are equal, comparing
// the losses by their bits.
func sameResult(a, b TrainResult) bool {
	return a.Eras == b.Eras && a.Converged == b.Converged &&
		math.Float64bits(a.TrainLoss) == math.Float64bits(b.TrainLoss) &&
		math.Float64bits(a.TestLoss) == math.Float64bits(b.TestLoss)
}

// TestFitMatchesIndexedReference trains twin networks with Fit and with
// refFit on 1, 2, 7 and 1,000 rows, with and without shuffling, error
// clipping, learning-rate decay and a test set. Each result must equal
// the reference's and each network must snapshot to the same bytes,
// and Fit must leave the rows it was handed as they were.
func TestFitMatchesIndexedReference(t *testing.T) {
	for _, n := range []int{1, 2, 7, 1000} {
		r := xrand.New(uint64(100*n + 3))
		train := randomRows(r, n)
		test := randomRows(r, n/4+1)
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
			var ts []Row
			if variant&8 != 0 {
				ts = test
			}
			name := fmt.Sprintf("n=%d/variant=%d", n, variant)
			a := NewMLP(xrand.New(uint64(variant + 1)))
			b := NewMLP(xrand.New(uint64(variant + 1)))
			before := fmt.Sprint(train, ts)
			got := a.Fit(train, ts, cfg)
			want := refFit(&b, train, ts, cfg)
			if !sameResult(got, want) {
				t.Fatalf("%s: Fit %+v, reference %+v", name, got, want)
			}
			if !bytes.Equal(save(&a), save(&b)) {
				t.Fatalf("%s: snapshot differs from the reference's", name)
			}
			if fmt.Sprint(train, ts) != before {
				t.Fatalf("%s: Fit changed its rows", name)
			}
		}
	}
}
