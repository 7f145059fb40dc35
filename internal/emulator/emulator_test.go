package emulator

import (
	"math"
	"testing"

	"mmogdc/internal/stats"
)

func tinyConfig(seed uint64) Config {
	return Config{
		Name:       "tiny",
		Seed:       seed,
		GridW:      6,
		GridH:      6,
		Entities:   300,
		ProfileMix: [4]float64{40, 30, 20, 10},
		Steps:      60,
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(tinyConfig(9))
	b := Run(tinyConfig(9))
	for i, v := range a.Total.Values {
		if b.Total.Values[i] != v {
			t.Fatalf("total diverged at step %d", i)
		}
	}
	for z := range a.Zones {
		for i, v := range a.Zones[z].Values {
			if b.Zones[z].Values[i] != v {
				t.Fatalf("zone %d diverged at step %d", z, i)
			}
		}
	}
}

func TestSeedsProduceDifferentWorlds(t *testing.T) {
	a := Run(tinyConfig(1))
	b := Run(tinyConfig(2))
	same := 0
	for i := range a.Zones[0].Values {
		if a.Zones[0].Values[i] == b.Zones[0].Values[i] {
			same++
		}
	}
	if same == len(a.Zones[0].Values) {
		t.Fatal("different seeds produced identical zone signals")
	}
}

func TestZoneCountConservation(t *testing.T) {
	// At every step, the sum of zone counts must equal the active
	// population, and Total must equal the zone sum.
	ds := Run(tinyConfig(3))
	for i := range ds.Total.Values {
		var sum float64
		for _, z := range ds.Zones {
			v := z.At(i)
			if v < 0 {
				t.Fatalf("negative zone count at step %d: %v", i, v)
			}
			sum += v
		}
		if sum != ds.Total.At(i) {
			t.Fatalf("step %d: zone sum %v != total %v", i, sum, ds.Total.At(i))
		}
	}
}

func TestWorldStepInvariants(t *testing.T) {
	w := NewWorld(tinyConfig(5))
	for s := 0; s < 50; s++ {
		w.Step()
		counts := w.ZoneCounts()
		sum := 0
		for _, n := range counts {
			if n < 0 {
				t.Fatalf("negative count after step %d", s)
			}
			sum += n
		}
		if sum != w.ActiveEntities() {
			t.Fatalf("step %d: counted %d, active %d", s, sum, w.ActiveEntities())
		}
	}
}

func TestPopulationBounded(t *testing.T) {
	cfg := tinyConfig(7)
	cfg.PeakHours = true
	ds := Run(cfg)
	for i, v := range ds.Total.Values {
		if v < 0 || v > float64(cfg.Entities) {
			t.Fatalf("step %d: population %v out of [0, %d]", i, v, cfg.Entities)
		}
	}
}

func TestPeakHoursCreateDiurnalCycle(t *testing.T) {
	cfg := Config{Name: "d", Seed: 21, GridW: 8, GridH: 8, Entities: 600,
		ProfileMix: [4]float64{30, 40, 30, 0}, PeakHours: true, Steps: 720}
	ds := Run(cfg)
	// Evening samples (around step 585, i.e. 19:30) should far exceed
	// early-morning samples (around step 165, i.e. 05:30).
	evening := stats.Mean(ds.Total.Values[570:600])
	morning := stats.Mean(ds.Total.Values[150:180])
	if evening < 2*morning {
		t.Errorf("peak-hours evening %v vs morning %v, want >= 2x", evening, morning)
	}
}

func TestNoPeakHoursIsFlatter(t *testing.T) {
	mk := func(peak bool) float64 {
		cfg := Config{Name: "f", Seed: 23, GridW: 8, GridH: 8, Entities: 600,
			ProfileMix: [4]float64{25, 25, 25, 25}, PeakHours: peak, Steps: 720}
		ds := Run(cfg)
		m := stats.Mean(ds.Total.Values)
		var ss float64
		for _, v := range ds.Total.Values {
			ss += (v - m) * (v - m)
		}
		return math.Sqrt(ss/float64(len(ds.Total.Values))) / m
	}
	if flat, wavy := mk(false), mk(true); wavy < 2*flat {
		t.Errorf("peak-hours CV %v should dwarf flat CV %v", wavy, flat)
	}
}

func TestAggressiveProfilesCreateHotspots(t *testing.T) {
	// A mostly-aggressive world should concentrate entities much more
	// than a mostly-scout world: compare the max-zone share.
	run := func(mix [4]float64, seed uint64) float64 {
		cfg := Config{Name: "h", Seed: seed, GridW: 10, GridH: 10, Entities: 800,
			ProfileMix: mix, Steps: 120}
		ds := Run(cfg)
		last := len(ds.Total.Values) - 1
		var maxZone float64
		for _, z := range ds.Zones {
			if v := z.At(last); v > maxZone {
				maxZone = v
			}
		}
		return maxZone / ds.Total.At(last)
	}
	aggr := run([4]float64{90, 10, 0, 0}, 31)
	scout := run([4]float64{10, 90, 0, 0}, 31)
	if aggr < 3*scout {
		t.Errorf("aggressive max-zone share %v should dwarf scout share %v", aggr, scout)
	}
}

func TestInstantDynamicsIncreaseStepToStepChange(t *testing.T) {
	run := func(inst Level) float64 {
		cfg := Config{Name: "i", Seed: 41, GridW: 10, GridH: 10, Entities: 800,
			ProfileMix: [4]float64{50, 50, 0, 0}, Instant: inst, Steps: 200}
		ds := Run(cfg)
		// Mean absolute per-step change of zone populations.
		var change float64
		var n int
		for _, z := range ds.Zones {
			for i := 1; i < z.Len(); i++ {
				change += math.Abs(z.At(i) - z.At(i-1))
				n++
			}
		}
		return change / float64(n)
	}
	lo, hi := run(Low), run(High)
	if hi < 2*lo {
		t.Errorf("high instant dynamics change %v should dwarf low %v", hi, lo)
	}
}

func TestTableIConfigs(t *testing.T) {
	cfgs := TableIConfigs()
	if len(cfgs) != 8 {
		t.Fatalf("want 8 configs, got %d", len(cfgs))
	}
	// Paper Table I profile mixes.
	wantMix := [][4]float64{
		{80, 10, 0, 10}, {60, 10, 0, 20}, {70, 20, 0, 10}, {70, 30, 0, 0},
		{30, 40, 30, 0}, {10, 80, 10, 0}, {20, 40, 40, 0}, {20, 80, 0, 0},
	}
	wantPeak := []bool{false, false, false, false, true, true, true, true}
	for i, c := range cfgs {
		if c.ProfileMix != wantMix[i] {
			t.Errorf("set %d mix = %v, want %v", i+1, c.ProfileMix, wantMix[i])
		}
		if c.PeakHours != wantPeak[i] {
			t.Errorf("set %d peak hours = %v", i+1, c.PeakHours)
		}
	}
	// Signal classes per Section IV-D1.
	wantType := []SignalType{TypeIII, TypeI, TypeI, TypeI, TypeIII, TypeII, TypeII, TypeII}
	for i, c := range cfgs {
		if got := SignalTypeOf(c); got != wantType[i] {
			t.Errorf("set %d type = %v, want %v", i+1, got, wantType[i])
		}
	}
	seeds := map[uint64]bool{}
	for _, c := range cfgs {
		if seeds[c.Seed] {
			t.Errorf("duplicate seed %d", c.Seed)
		}
		seeds[c.Seed] = true
	}
}

func TestProfileAndLevelStrings(t *testing.T) {
	for p := Aggressive; p < numProfiles; p++ {
		if p.String() == "" {
			t.Errorf("profile %d unlabeled", int(p))
		}
	}
	if Profile(99).String() != "Profile(99)" {
		t.Error("unknown profile label")
	}
	for _, l := range []Level{Low, Medium, High} {
		if l.String() == "" {
			t.Errorf("level %d unlabeled", int(l))
		}
	}
	if Level(99).String() != "Level(99)" {
		t.Error("unknown level label")
	}
}

func TestDefaultsApplied(t *testing.T) {
	ds := Run(Config{Name: "defaults", Seed: 51, Steps: 2})
	if len(ds.Zones) != 12*12 {
		t.Fatalf("default grid = %d zones, want 144", len(ds.Zones))
	}
	if ds.Total.Len() != 2 {
		t.Fatalf("steps = %d", ds.Total.Len())
	}
	if ds.Total.At(0) <= 0 {
		t.Fatal("default entity population missing")
	}
}

func TestZoneCountsIsACopy(t *testing.T) {
	w := NewWorld(tinyConfig(61))
	c := w.ZoneCounts()
	c[0] = -999
	if w.ZoneCounts()[0] == -999 {
		t.Fatal("ZoneCounts exposes internal storage")
	}
}

func TestInteractionCount(t *testing.T) {
	w := NewWorld(tinyConfig(71))
	counts := w.ZoneCounts()
	want := 0
	for _, n := range counts {
		want += n * (n - 1) / 2
	}
	if got := w.InteractionCount(); got != want {
		t.Fatalf("InteractionCount = %d, want %d", got, want)
	}
	if want == 0 {
		t.Fatal("test world has no co-located entities")
	}
}

func TestRunRecordsInteractions(t *testing.T) {
	ds := Run(tinyConfig(73))
	if ds.Interactions.Len() != ds.Total.Len() {
		t.Fatalf("interactions series length %d != %d", ds.Interactions.Len(), ds.Total.Len())
	}
	for i, v := range ds.Interactions.Values {
		if v < 0 {
			t.Fatalf("negative interaction count at step %d", i)
		}
	}
}

func TestAggressiveMixHasHigherInteractionIntensity(t *testing.T) {
	run := func(mix [4]float64) float64 {
		cfg := Config{Name: "ii", Seed: 81, GridW: 10, GridH: 10, Entities: 600,
			ProfileMix: mix, Steps: 120}
		ds := Run(cfg)
		var sum float64
		for t := 0; t < ds.Total.Len(); t++ {
			if n := ds.Total.At(t); n > 0 {
				sum += ds.Interactions.At(t) / n
			}
		}
		return sum / float64(ds.Total.Len())
	}
	aggr := run([4]float64{90, 10, 0, 0})
	scout := run([4]float64{10, 90, 0, 0})
	if aggr < 2*scout {
		t.Fatalf("aggressive per-capita interactions %v should dwarf scout %v", aggr, scout)
	}
}
