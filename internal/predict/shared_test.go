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
	c := PaperNeuralConfig(5)
	if c.Window != 6 || c.Hidden != 3 {
		t.Fatalf("paper structure must be (6,3,1), got (%d,%d,1)", c.Window, c.Hidden)
	}
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
	if got := f().(Stateful).Snapshot(); !bytes.Equal(got, snap) {
		t.Errorf("the pretrained predictor's %d-byte snapshot differs from the committed %d bytes", len(got), len(snap))
	}
}
