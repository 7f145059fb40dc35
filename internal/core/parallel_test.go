package core

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

// equivalenceConfig builds a deliberately rich simulation — two games
// with different predictors and update models, two regions per game,
// two contended centers, interaction prioritization, tick-0 and
// mid-run outages, center tracking — freshly for each call (centers
// and predictors are stateful across a run).
func equivalenceConfig(workers int) Config {
	mkDS := func(seed uint64) *trace.Dataset {
		return trace.Generate(trace.Config{Seed: seed, Days: 1, Regions: []trace.Region{
			{ID: 0, Name: "Europe", Location: geo.London, Groups: 6},
			{ID: 1, Name: "US East Coast", Location: geo.NewYork, UTCOffsetHours: -5, Groups: 4},
		}})
	}
	gA := mmog.NewGame("A", mmog.GenreMMORPG)
	gB := mmog.NewGame("B", mmog.GenreRPG)
	gB.Update = mmog.UpdateLinear

	var bulk datacenter.Vector
	bulk[datacenter.CPU] = 0.25
	policy := datacenter.HostingPolicy{Name: "fine", Bulk: bulk, TimeBulk: time.Hour}
	centers := []*datacenter.Center{
		datacenter.NewCenter("london", geo.London, 40, policy),
		datacenter.NewCenter("nyc", geo.NewYork, 30, policy),
	}

	return Config{
		Workers:                 workers,
		Centers:                 centers,
		TrackCenters:            true,
		PrioritizeByInteraction: true,
		SafetyMargin:            0.1,
		Faults: &faults.Config{ScheduledOutages: []faults.CenterOutage{
			{Center: "nyc", Start: 0, Duration: 12},
			{Center: "london", Start: 300, Duration: 40},
		}},
		Workloads: []Workload{
			{Game: gA, Dataset: mkDS(17), Predictor: predict.NewNeural(predict.PaperNeuralConfig(3))},
			{Game: gB, Dataset: mkDS(23), Predictor: predict.NewMovingAverage(6)},
		},
	}
}

// bitsEqual compares floats bit-for-bit, treating every NaN as equal
// to every other NaN (reflect.DeepEqual-style).
func bitsEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func compareResults(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Ticks != b.Ticks || a.Events != b.Events || a.Unmet != b.Unmet {
		t.Fatalf("scalar fields differ: ticks %d/%d events %d/%d unmet %d/%d",
			a.Ticks, b.Ticks, a.Events, b.Events, a.Unmet, b.Unmet)
	}
	for r := 0; r < int(datacenter.NumResources); r++ {
		if !bitsEqual(a.AvgOverPct[r], b.AvgOverPct[r]) {
			t.Errorf("AvgOverPct[%d]: %v != %v", r, a.AvgOverPct[r], b.AvgOverPct[r])
		}
		if !bitsEqual(a.AvgUnderPct[r], b.AvgUnderPct[r]) {
			t.Errorf("AvgUnderPct[%d]: %v != %v", r, a.AvgUnderPct[r], b.AvgUnderPct[r])
		}
	}
	if len(a.CumEvents) != len(b.CumEvents) {
		t.Fatalf("CumEvents length %d != %d", len(a.CumEvents), len(b.CumEvents))
	}
	for i := range a.CumEvents {
		if a.CumEvents[i] != b.CumEvents[i] {
			t.Fatalf("CumEvents[%d]: %d != %d", i, a.CumEvents[i], b.CumEvents[i])
		}
	}
	for i := range a.OverPct {
		if !bitsEqual(a.OverPct[i], b.OverPct[i]) {
			t.Fatalf("OverPct[%d]: %v != %v", i, a.OverPct[i], b.OverPct[i])
		}
	}
	for i := range a.UnderPct {
		if !bitsEqual(a.UnderPct[i], b.UnderPct[i]) {
			t.Fatalf("UnderPct[%d]: %v != %v", i, a.UnderPct[i], b.UnderPct[i])
		}
	}
	if len(a.AvgUnderByGame) != len(b.AvgUnderByGame) {
		t.Fatalf("AvgUnderByGame size %d != %d", len(a.AvgUnderByGame), len(b.AvgUnderByGame))
	}
	for name, v := range a.AvgUnderByGame {
		if w, ok := b.AvgUnderByGame[name]; !ok || !bitsEqual(v, w) {
			t.Errorf("AvgUnderByGame[%q]: %v != %v", name, v, w)
		}
	}
	if len(a.CenterStats) != len(b.CenterStats) {
		t.Fatalf("CenterStats size %d != %d", len(a.CenterStats), len(b.CenterStats))
	}
	for name, ca := range a.CenterStats {
		cb := b.CenterStats[name]
		if cb == nil {
			t.Fatalf("CenterStats[%q] missing", name)
		}
		if !bitsEqual(ca.AvgAllocatedCPU, cb.AvgAllocatedCPU) || !bitsEqual(ca.AvgFreeCPU, cb.AvgFreeCPU) {
			t.Errorf("CenterStats[%q]: alloc %v/%v free %v/%v",
				name, ca.AvgAllocatedCPU, cb.AvgAllocatedCPU, ca.AvgFreeCPU, cb.AvgFreeCPU)
		}
		if len(ca.AllocatedByRegion) != len(cb.AllocatedByRegion) {
			t.Fatalf("CenterStats[%q].AllocatedByRegion size %d != %d",
				name, len(ca.AllocatedByRegion), len(cb.AllocatedByRegion))
		}
		for region, v := range ca.AllocatedByRegion {
			if w, ok := cb.AllocatedByRegion[region]; !ok || !bitsEqual(v, w) {
				t.Errorf("CenterStats[%q].AllocatedByRegion[%q]: %v != %v", name, region, v, w)
			}
		}
	}
}

// TestParallelSequentialEquivalence is the contract of the three-phase
// engine: Workers=1 (fully sequential, the pre-parallelization
// behavior) and Workers=8 must produce bit-identical Results on a
// multi-game, multi-center run with outages injected.
func TestParallelSequentialEquivalence(t *testing.T) {
	seq, err := Run(equivalenceConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(equivalenceConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, seq, par)
	if seq.Ticks == 0 || seq.Events == 0 {
		t.Fatalf("degenerate run: ticks=%d events=%d (outages should disrupt)", seq.Ticks, seq.Events)
	}

	// Auto-sized pool (Workers=0) must match too.
	auto, err := Run(equivalenceConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, seq, auto)
}

// TestParallelEquivalenceStatic covers the static-provisioning path,
// whose per-zone phase skips prediction entirely.
func TestParallelEquivalenceStatic(t *testing.T) {
	mk := func(workers int) *Result {
		ds := syntheticDataset(5, 120, 1400)
		res, err := Run(Config{
			Static:    true,
			Workers:   workers,
			Workloads: []Workload{{Game: testGame(), Dataset: ds}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	compareResults(t, mk(1), mk(8))
}
