package predict

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mmogdc/internal/neural"
	"mmogdc/internal/trace"
	"mmogdc/internal/xrand"
)

// syntheticZones builds z zones of length n with a shared oscillation
// plus per-zone noise.
func syntheticZones(z, n int, seed uint64) [][]float64 {
	out := make([][]float64, z)
	state := seed
	rnd := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11)/(1<<53) - 0.5
	}
	for zi := range out {
		sig := make([]float64, n)
		level := 20 + 10*float64(zi%5)
		for t := range sig {
			wave := 8 * math.Sin(2*math.Pi*float64(t)/12)
			sig[t] = level + wave + 3*rnd()
			if sig[t] < 0 {
				sig[t] = 0
			}
		}
		out[zi] = sig
	}
	return out
}

func TestPretrainSharedTrainsAndClones(t *testing.T) {
	zones := syntheticZones(6, 300, 9)
	f, res := PretrainShared(PaperNeuralConfig(3), zones, 0.8, PaperTrainConfig(5))
	if res.Eras == 0 {
		t.Fatal("no training eras ran")
	}
	a, b := f(), f()
	// Clones start identical but are independent.
	for i := 0; i < 20; i++ {
		a.Observe(float64(10 + i))
	}
	if b.Predict() != 0 {
		t.Fatal("factory instances share state")
	}
}

func TestPretrainSharedAutoCapacity(t *testing.T) {
	zones := syntheticZones(3, 200, 11)
	cfg := PaperNeuralConfig(3)
	cfg.Capacity = 0 // force auto-calibration
	f, _ := PretrainShared(cfg, zones, 0.8, PaperTrainConfig(5))
	p := f().(*Neural)
	maxV := 0.0
	for _, sig := range zones {
		for _, v := range sig {
			if v > maxV {
				maxV = v
			}
		}
	}
	if math.Abs(p.cfg.Capacity-maxV*1.25) > 1e-9 {
		t.Fatalf("auto capacity = %v, want %v", p.cfg.Capacity, maxV*1.25)
	}
	if p.cfg.OutputScale <= 1 {
		t.Fatalf("auto output scale = %v, want > 1 for small deltas", p.cfg.OutputScale)
	}
}

func TestPretrainSharedEmptyCollected(t *testing.T) {
	f, res := PretrainShared(PaperNeuralConfig(3), nil, 0.8, neural.TrainConfig{})
	if res.Eras != 0 {
		t.Fatal("empty collection should not train")
	}
	if f() == nil {
		t.Fatal("factory should still work")
	}
}

func TestPretrainSharedBeatsLastValueOnOscillation(t *testing.T) {
	// The headline adaptive-accuracy claim on a predictable signal: an
	// oscillating load that fixed smoothers lag.
	train := syntheticZones(6, 400, 21)
	eval := syntheticZones(6, 400, 22)
	f, _ := PretrainShared(PaperNeuralConfig(3), train, 0.8, PaperTrainConfig(7))
	nErr := EvaluateZonesFromSecond(f, eval)
	lvErr := EvaluateZonesFromSecond(NewLastValue(), eval)
	if nErr >= lvErr {
		t.Fatalf("pretrained neural %v should beat last value %v on oscillating load", nErr, lvErr)
	}
}

func TestPaperConfigs(t *testing.T) {
	tc := PaperTrainConfig(5)
	if tc.ShuffleSeed != 5 || tc.MaxEras == 0 {
		t.Fatalf("train config wrong: %+v", tc)
	}
}

// TestPretrainSharedMatchesCommitted pins the paper's pretrained
// network: cmd/mmogsim's neural recipe for -days 1 -seed 1 (a one-day
// shadow trace of seed 2, PaperNeuralConfig(4), PaperTrainConfig(3))
// must give the TrainResult in testdata/pretrain-days1.txt, and a
// factory predictor must snapshot to testdata/pretrain-days1.snap.
func TestPretrainSharedMatchesCommitted(t *testing.T) {
	shadow := trace.Generate(trace.Config{Seed: 2, Days: 1})
	collected := make([][]float64, len(shadow.Groups))
	for i, g := range shadow.Groups {
		collected[i] = g.Load.Values
	}
	f, res := PretrainShared(PaperNeuralConfig(4), collected, 0.8, PaperTrainConfig(3))
	want, err := os.ReadFile(filepath.Join("testdata", "pretrain-days1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v\n", res); got != string(want) {
		t.Errorf("TrainResult %s, committed %s", got, want)
	}
	snap, err := os.ReadFile(filepath.Join("testdata", "pretrain-days1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := save(f().(Stateful)); !bytes.Equal(got, snap) {
		t.Errorf("the pretrained predictor's %d-byte snapshot differs from the committed %d bytes", len(got), len(snap))
	}
}

// walkedFactoryPredictor pretrains on six synthetic zones and returns a
// factory predictor after a 200-step seeded random walk of Observe and
// Predict, with the factory.
func walkedFactoryPredictor(t *testing.T) (Stateful, Factory) {
	t.Helper()
	f, res := PretrainShared(PaperNeuralConfig(3), syntheticZones(6, 300, 9), 0.8, PaperTrainConfig(5))
	if res.Eras == 0 {
		t.Fatal("no training eras ran")
	}
	p := f().(Stateful)
	r := xrand.New(43)
	level := 30.0
	for i := 0; i < 200; i++ {
		level = math.Max(0, level+r.NormFloat64()*4)
		p.Observe(level)
		p.Predict()
	}
	return p, f
}

// TestFactoryWalkMatchesCommitted pins the predictor PretrainShared's
// factory builds around the pretrained weights: after
// walkedFactoryPredictor's walk it must snapshot to
// testdata/pretrain-walk200.snap, written by the factory that cloned
// the weights into a freshly drawn predictor.
func TestFactoryWalkMatchesCommitted(t *testing.T) {
	p, _ := walkedFactoryPredictor(t)
	want, err := os.ReadFile(filepath.Join("testdata", "pretrain-walk200.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := save(p); !bytes.Equal(got, want) {
		t.Errorf("the walked predictor's %d-byte snapshot differs from the committed %d bytes", len(got), len(want))
	}
}

// TestFactoryAllocs pins the allocations of one factory call: the
// predictor and its smoother, with the network inside the predictor.
func TestFactoryAllocs(t *testing.T) {
	_, f := walkedFactoryPredictor(t)
	if n := testing.AllocsPerRun(100, func() { f() }); n != 2 {
		t.Fatalf("a factory call makes %v allocations, want 2", n)
	}
}

// splitAtNonFinite splits each signal at its NaN and infinite samples,
// dropping them.
func splitAtNonFinite(signals [][]float64) [][]float64 {
	var out [][]float64
	for _, s := range signals {
		start := 0
		for i, v := range s {
			if !finite(v) {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
		out = append(out, s[start:])
	}
	return out
}

// TestPretrainSharedSkipsNonFinite pretrains, with auto-calibrated
// Capacity and OutputScale, over signals holding NaN, +Inf and -Inf
// samples (alone, adjacent, first, last and inside the first window),
// and over the same signals split at those samples. The TrainResults
// must be equal bit for bit, and so must the snapshots of the two
// factories' predictors, which carry the calibrated Capacity and
// OutputScale, before and after a walk over the same finite samples.
func TestPretrainSharedSkipsNonFinite(t *testing.T) {
	zones := syntheticZones(4, 400, 17)
	nan, inf := math.NaN(), math.Inf(1)
	zones[0][200] = nan
	zones[1][0], zones[1][150], zones[1][151] = inf, -inf, nan
	zones[2][3], zones[2][399] = nan, inf
	zones[3][250] = 1e6 * inf
	f, res := PretrainShared(PaperNeuralConfig(3), zones, 0.8, PaperTrainConfig(5))
	g, want := PretrainShared(PaperNeuralConfig(3), splitAtNonFinite(zones), 0.8, PaperTrainConfig(5))
	if res.Eras != want.Eras || res.Converged != want.Converged ||
		math.Float64bits(res.TrainLoss) != math.Float64bits(want.TrainLoss) ||
		math.Float64bits(res.TestLoss) != math.Float64bits(want.TestLoss) {
		t.Fatalf("TrainResult %+v, over the split signals %+v", res, want)
	}
	if !finite(res.TrainLoss) || !finite(res.TestLoss) {
		t.Fatalf("non-finite losses %+v", res)
	}
	p, q := f().(Stateful), g().(Stateful)
	for i := 0; i < 100; i++ {
		if !bytes.Equal(save(p), save(q)) {
			t.Fatalf("step %d: the factories' predictors differ", i)
		}
		v := zones[1][200+i]
		p.Observe(v)
		q.Observe(v)
		if got := p.Predict(); !finite(got) || got != q.Predict() {
			t.Fatalf("step %d: predicted %v and %v", i, got, q.Predict())
		}
	}
}
