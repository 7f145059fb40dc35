package core

import (
	"fmt"
	"testing"

	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
)

// budgetAllocs returns the allocations of one warm Run of the budget
// configuration: 16 zones x 720 ticks of smooth load on one fine-grained
// center. tune, when set, adjusts the config of every run.
func budgetAllocs(t *testing.T, workers int, tune func(*Config)) float64 {
	t.Helper()
	run := func() {
		ds := syntheticDataset(16, 720, 500)
		cfg := Config{
			Workers:   workers,
			Centers:   fineCenters(1000),
			Workloads: []Workload{{Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue()}},
		}
		if tune != nil {
			tune(&cfg)
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up lazy runtime state outside the measurement
	return testing.AllocsPerRun(3, run)
}

// TestRunAllocationBudget locks in the steady-state allocation contract
// of the tick loop. A whole Run still allocates for three legitimate
// reasons: setup (zone state, partials, predictors, result series),
// the lease objects the acquire phase creates as demand grows
// (retained state, proportional to demand growth, one object per lease
// here, appended into the zone's lease book), and the parallel
// dispatch's O(workers) closures per tick. What it must NOT do is
// allocate per zone per tick in the observe/predict/reduce path. The
// budgets sit ~6k above the measured totals for this configuration;
// the guarded regression class (one allocation per zone-tick, e.g. a
// tag formatted inside the loop) adds at least 16 x 720 = 11.5k
// objects and fails immediately.
func TestRunAllocationBudget(t *testing.T) {
	budgets := map[int]float64{1: 15000, 2: 20000, 8: 24000}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			avg := budgetAllocs(t, workers, nil)
			t.Logf("workers=%d: %.0f allocs per run (16 zones x 720 ticks)", workers, avg)
			if budget := budgets[workers]; avg > budget {
				t.Errorf("workers=%d: %.0f allocs per run exceeds budget %.0f — the tick loop is allocating again", workers, avg, budget)
			}
		})
	}

	// Decision provenance costs little when on: the walk of each
	// decision event is interned, so a run allocates one string per
	// distinct walk, not one per decision.
	t.Run("provenance", func(t *testing.T) {
		off := budgetAllocs(t, 1, func(cfg *Config) { cfg.Obs = obs.New() })
		on := budgetAllocs(t, 1, func(cfg *Config) { cfg.Obs = obs.New(); cfg.Provenance = 256 })
		t.Logf("telemetry on: %.0f allocs per run without provenance, %.0f with", off, on)
		if on > 1.10*off {
			t.Errorf("provenance adds %.0f%% allocs (%.0f vs %.0f), over the 10%% bound", 100*(on/off-1), on, off)
		}
	})
}
