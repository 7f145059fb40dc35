package predict

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/neural"
	"mmogdc/internal/xrand"
)

// save returns the payload v's state method writes.
func save(v interface{ State(*checkpoint.Codec) }) []byte {
	c := checkpoint.NewWriter()
	v.State(c)
	return c.Data()
}

// load reads data into v with its state method, refusing data unless v
// read all of it.
func load(v interface{ State(*checkpoint.Codec) }, data []byte) error {
	c := checkpoint.NewReader(data)
	v.State(c)
	return c.Close()
}

// snapshotFactories enumerates every predictor factory in the package,
// including a pretrained shared-network neural factory, so the
// round-trip property below covers each concrete type end to end.
func snapshotFactories(t testing.TB) map[string]Factory {
	t.Helper()
	collected := make([][]float64, 3)
	r := xrand.New(91)
	for z := range collected {
		sig := make([]float64, 120)
		level := 40.0 + 10*float64(z)
		for i := range sig {
			level += r.NormFloat64() * 3
			sig[i] = level + 15*math.Sin(float64(i)/7)
		}
		collected[z] = sig
	}
	pretrained, _ := PretrainShared(NeuralConfig{Seed: 5}, collected, 0.8,
		neural.TrainConfig{MaxEras: 5, ShuffleSeed: 11})
	return map[string]Factory{
		"lastvalue":     NewLastValue(),
		"average":       NewAverage(),
		"movingavg":     NewMovingAverage(12),
		"expsmoothing":  NewExpSmoothing(0.3, "exp"),
		"holt":          NewHolt(0.4, 0.1),
		"median":        NewSlidingWindowMedian(9),
		"ar":            NewAR(8, 16, 64),
		"seasonalnaive": NewSeasonalNaive(24),
		"neural":        NewNeural(NeuralConfig{Seed: 7, Capacity: 150}),
		"pretrained":    pretrained,
	}
}

// TestSnapshotRoundTripEquivalence is the crash-safety property behind
// operator checkpointing: snapshot a predictor at an arbitrary cut
// point, restore into a fresh factory instance, and from then on both
// must produce bit-identical forecasts on the same stream.
func TestSnapshotRoundTripEquivalence(t *testing.T) {
	for name, f := range snapshotFactories(t) {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				r := xrand.New(seed * 977)
				p := f().(Stateful)
				cut := 1 + int(r.Uint64()%60)
				level := 50.0
				obs := func() float64 {
					level += r.NormFloat64() * 4
					if level < 0 {
						level = 0
					}
					return level
				}
				for i := 0; i < cut; i++ {
					p.Observe(obs())
				}
				q := f().(Stateful)
				if err := load(q, save(p)); err != nil {
					t.Fatalf("seed %d: restore: %v", seed, err)
				}
				if pb, qb := math.Float64bits(p.Predict()), math.Float64bits(q.Predict()); pb != qb {
					t.Fatalf("seed %d: diverged immediately after restore: %x vs %x", seed, pb, qb)
				}
				for i := 0; i < 80; i++ {
					v := obs()
					p.Observe(v)
					q.Observe(v)
					pb, qb := math.Float64bits(p.Predict()), math.Float64bits(q.Predict())
					if pb != qb {
						t.Fatalf("seed %d: diverged %d steps after restore: %x vs %x", seed, i+1, pb, qb)
					}
				}
			}
		})
	}
}

// TestSnapshotRejectsWrongKind ensures a snapshot can never be loaded
// into a different predictor type.
func TestSnapshotRejectsWrongKind(t *testing.T) {
	fs := snapshotFactories(t)
	holt := fs["holt"]().(Stateful)
	holt.Observe(3)
	for name, f := range fs {
		if name == "holt" {
			continue
		}
		q := f().(Stateful)
		if err := load(q, save(holt)); err == nil {
			t.Fatalf("%s accepted a holt snapshot", name)
		}
	}
}

// TestSnapshotRejectsConfigMismatch ensures a snapshot from a
// differently configured factory is refused, not silently adapted.
func TestSnapshotRejectsConfigMismatch(t *testing.T) {
	cases := []struct{ a, b Factory }{
		{NewMovingAverage(12), NewMovingAverage(6)},
		{NewExpSmoothing(0.3, "x"), NewExpSmoothing(0.5, "x")},
		{NewHolt(0.4, 0.1), NewHolt(0.4, 0.2)},
		{NewSlidingWindowMedian(9), NewSlidingWindowMedian(5)},
		{NewAR(8, 16, 64), NewAR(4, 16, 64)},
		{NewSeasonalNaive(24), NewSeasonalNaive(12)},
		{NewNeural(NeuralConfig{Seed: 7, Capacity: 150}), NewNeural(NeuralConfig{Seed: 7, Capacity: 99})},
	}
	for i, c := range cases {
		p := c.a().(Stateful)
		for j := 0; j < 20; j++ {
			p.Observe(float64(j))
		}
		q := c.b().(Stateful)
		if err := load(q, save(p)); err == nil {
			t.Fatalf("case %d (%T): config mismatch accepted", i, p)
		}
	}
}

// TestSnapshotRejectsTruncation ensures every predictor notices a cut
// snapshot instead of restoring garbage.
func TestSnapshotRejectsTruncation(t *testing.T) {
	for name, f := range snapshotFactories(t) {
		p := f().(Stateful)
		for j := 0; j < 30; j++ {
			p.Observe(float64(j % 7))
		}
		snap := save(p)
		q := f().(Stateful)
		if err := load(q, snap[:len(snap)-3]); err == nil {
			t.Fatalf("%s accepted a truncated snapshot", name)
		}
		if err := load(q, append(append([]byte(nil), snap...), 0)); err == nil {
			t.Fatalf("%s accepted a padded snapshot", name)
		}
	}
}

// inconsistentNeuralWindows are neural window states no sequence of
// Observe calls reaches. The first two used to restore without error,
// and the next Predict indexed before the window's start.
var inconsistentNeuralWindows = []struct {
	window, seen int
	havePre      bool
}{
	{0, 5, false},
	{0, -3, false},
	{5, 7, false},
	{6, 6, false},
	{3, 3, true},
	{6, -1, true},
}

// rampedNeural is a paper-configured neural predictor that has observed
// and predicted a 30-step ramp.
func rampedNeural() *Neural {
	p := MustNeural(PaperNeuralConfig(1))
	for i := 0; i < 30; i++ {
		p.Observe(float64(100 + 10*i))
		p.Predict()
	}
	return p
}

// neuralSnapshotWith writes rampedNeural's snapshot in Neural.state's
// layout, with its window cut to window samples and the observation
// count and the smoothed-window flag replaced by seen and havePre.
func neuralSnapshotWith(window, seen int, havePre bool) []byte {
	p := rampedNeural()
	c := checkpoint.NewWriter()
	checkpoint.Expect(c, kindNeural, "")
	checkpoint.Expect(c, neural.Inputs, "")
	checkpoint.Expect(c, p.cfg.Capacity, "")
	checkpoint.Expect(c, p.cfg.OutputScale, "")
	checkpoint.Expect(c, false, "")
	w, prevIn := p.window[:window], p.prevIn[:]
	c.F64s(&w)
	c.Int(&seen)
	c.F64s(&prevIn)
	c.F64(&p.prevLast)
	c.Bool(&havePre)
	c.Section(p.net.State)
	return c.Data()
}

// TestSnapshotRejectsInconsistentNeuralWindow ensures a neural snapshot
// whose window length, observation count and smoothed-window flag
// disagree is refused.
func TestSnapshotRejectsInconsistentNeuralWindow(t *testing.T) {
	for _, c := range inconsistentNeuralWindows {
		q := MustNeural(PaperNeuralConfig(1))
		if err := load(q, neuralSnapshotWith(c.window, c.seen, c.havePre)); err == nil {
			t.Errorf("window %d, seen %d, havePre %v: restored", c.window, c.seen, c.havePre)
		}
	}
	q := MustNeural(PaperNeuralConfig(1))
	if err := load(q, neuralSnapshotWith(4, 4, false)); err != nil {
		t.Fatalf("a half-full window was refused: %v", err)
	}
	if !bytes.Equal(neuralSnapshotWith(6, 30, true), save(rampedNeural())) {
		t.Fatal("neuralSnapshotWith writes another layout than Snapshot")
	}
}

// TestNeuralRestoreIntoUsedPredictor restores a snapshot into a
// predictor that has already predicted on the same window under other
// weights (TestSnapshotRoundTripEquivalence restores only into fresh
// ones): its next training step must not reuse its own stale forward
// pass.
func TestNeuralRestoreIntoUsedPredictor(t *testing.T) {
	p := MustNeural(PaperNeuralConfig(7))
	q := MustNeural(PaperNeuralConfig(8))
	r := xrand.New(3)
	level := 500.0
	obs := func() float64 {
		level += r.NormFloat64() * 20
		return level
	}
	for i := 0; i < 40; i++ {
		v := obs()
		p.Observe(v)
		q.Observe(v)
		p.Predict()
		q.Predict()
	}
	if err := load(p, save(q)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		v := obs()
		p.Observe(v)
		q.Observe(v)
		if pb, qb := math.Float64bits(p.Predict()), math.Float64bits(q.Predict()); pb != qb {
			t.Fatalf("diverged %d steps after restore: %x vs %x", i+1, pb, qb)
		}
	}
}

// FuzzNeuralRestore feeds hostile payloads to a paper-configured neural
// predictor. A payload must be refused, or the predictor must predict
// and then run 20 Observe/Predict steps without panicking, and its
// snapshot must survive
// a Restore byte for byte. The seed corpus is a real snapshot and the
// inconsistent windows above.
func FuzzNeuralRestore(f *testing.F) {
	f.Add(neuralSnapshotWith(6, 30, true))
	for _, c := range inconsistentNeuralWindows {
		f.Add(neuralSnapshotWith(c.window, c.seen, c.havePre))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := MustNeural(PaperNeuralConfig(1))
		if err := load(p, data); err != nil {
			return
		}
		p.Predict()
		for i := 0; i < 20; i++ {
			p.Observe(float64(100 + (i*37)%900))
			p.Predict()
		}
		snap := save(p)
		q := MustNeural(PaperNeuralConfig(1))
		if err := load(q, snap); err != nil {
			t.Fatalf("a restored predictor's snapshot was refused: %v", err)
		}
		if !bytes.Equal(save(q), snap) {
			t.Fatal("Snapshot -> Restore -> Snapshot changed the bytes")
		}
	})
}

// TestZoneSetSnapshotRoundTrip covers the aggregate used by the
// operator: restore must reproduce the whole per-zone forecast vector
// bit-identically and refuse zone-count mismatches.
func TestZoneSetSnapshotRoundTrip(t *testing.T) {
	f := NewAR(4, 8, 32)
	z := NewZoneSet(f, 5)
	r := xrand.New(3)
	vals := make([]float64, 5)
	for i := 0; i < 40; i++ {
		for j := range vals {
			vals[j] = 20 + 10*r.Float64()
		}
		if err := z.Observe(vals); err != nil {
			t.Fatal(err)
		}
	}
	snap := save(z)
	w := NewZoneSet(f, 5)
	if err := load(w, snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for j := range vals {
			vals[j] = 20 + 10*r.Float64()
		}
		z.Observe(vals)
		w.Observe(vals)
		a, b := z.PredictEachInto(nil), w.PredictEachInto(nil)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("zone %d diverged at step %d: %v vs %v", j, i, a[j], b[j])
			}
		}
	}

	wrong := NewZoneSet(f, 4)
	if err := load(wrong, snap); err == nil || !strings.Contains(err.Error(), "zones") {
		t.Fatalf("zone-count mismatch: %v", err)
	}
}

// kinds are the nine predictor kinds, each with its factory from
// snapshotFactories.
var kinds = []string{kindLastValue, kindAverage, kindMovingAvg, kindExpSmooth,
	kindHolt, kindMedian, kindAR, kindSeasonal, kindNeural}

// pinnedPredictor builds a kind's predictor and runs it over 50 steps of
// a seeded random walk, observing and predicting each step.
func pinnedPredictor(f Factory) Stateful {
	p := f().(Stateful)
	r := xrand.New(41)
	level := 60.0
	for i := 0; i < 50; i++ {
		level = math.Max(0, level+r.NormFloat64()*5)
		p.Observe(level)
		p.Predict()
	}
	return p
}

// TestPredictorWriterMatchesCommitted pins each kind's byte layout: the
// snapshot of pinnedPredictor equals testdata/snapshots/<kind>.snap, and
// that file restored into a fresh predictor snapshots back to the same
// bytes.
func TestPredictorWriterMatchesCommitted(t *testing.T) {
	fs := snapshotFactories(t)
	for _, kind := range kinds {
		want, err := os.ReadFile(filepath.Join("testdata", "snapshots", kind+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if got := save(pinnedPredictor(fs[kind])); !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot is %d bytes, differs from the committed %d", kind, len(got), len(want))
		}
		q := fs[kind]().(Stateful)
		if err := load(q, want); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !bytes.Equal(save(q), want) {
			t.Errorf("%s: the restored predictor's snapshot differs from the file it restored", kind)
		}
	}
}

// TestRefusedPayloadLeavesPredictor restores into each kind's pinned
// predictor the payload of another walk, padded by one byte: every
// value and section reads, and only the predictor's own last check
// refuses it. The predictor must be left as it was — the neural one's
// network too, which its section read before the refusal.
func TestRefusedPayloadLeavesPredictor(t *testing.T) {
	fs := snapshotFactories(t)
	for _, kind := range kinds {
		other := fs[kind]().(Stateful)
		for i := 0; i < 40; i++ {
			other.Observe(float64(90 + 7*(i%11)))
			other.Predict()
		}
		p := pinnedPredictor(fs[kind])
		before := save(p)
		if err := load(p, append(save(other), 0)); err == nil {
			t.Fatalf("%s: a padded payload restored", kind)
		}
		if !bytes.Equal(save(p), before) {
			t.Errorf("%s: a refused payload changed the predictor", kind)
		}
	}
}

// FuzzPredictorRestore feeds any payload to a predictor of any kind that
// has run pinnedPredictor's walk. The payload must be refused, leaving
// the predictor's snapshot as it was, or the predictor must predict,
// run 20 Observe/Predict steps without panicking, and snapshot to bytes
// that restore to the same bytes. The seed corpus is each kind's real
// snapshot, truncated by three bytes and padded by one.
func FuzzPredictorRestore(f *testing.F) {
	fs := snapshotFactories(f)
	for i, kind := range kinds {
		snap := save(pinnedPredictor(fs[kind]))
		f.Add(uint8(i), snap)
		f.Add(uint8(i), snap[:len(snap)-3])
		f.Add(uint8(i), append(slices.Clip(snap), 0))
	}
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		kind := kinds[int(k)%len(kinds)]
		p := pinnedPredictor(fs[kind])
		before := save(p)
		if err := load(p, data); err != nil {
			if !bytes.Equal(save(p), before) {
				t.Fatalf("%s: a refused payload (%v) changed the predictor", kind, err)
			}
			return
		}
		p.Predict()
		for i := 0; i < 20; i++ {
			p.Observe(float64(100 + (i*37)%900))
			p.Predict()
		}
		snap := save(p)
		q := fs[kind]().(Stateful)
		if err := load(q, snap); err != nil {
			t.Fatalf("%s: a restored predictor's snapshot was refused: %v", kind, err)
		}
		if !bytes.Equal(save(q), snap) {
			t.Fatalf("%s: Snapshot -> Restore -> Snapshot changed the bytes", kind)
		}
	})
}
