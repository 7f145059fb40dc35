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
	"mmogdc/internal/provision"
	"mmogdc/internal/series"
	"mmogdc/internal/trace"
)

// syntheticDataset builds a tiny deterministic dataset: groups with a
// smooth sinusoidal load.
func syntheticDataset(groups, samples int, peak float64) *trace.Dataset {
	start := time.Date(2007, 8, 18, 0, 0, 0, 0, time.UTC)
	ds := &trace.Dataset{
		Regions: []trace.Region{{ID: 0, Name: "Europe", Location: geo.London}},
	}
	for g := 0; g < groups; g++ {
		grp := &trace.Group{RegionID: 0, Index: g,
			Load: series.New(series.DefaultTick, start)}
		for t := 0; t < samples; t++ {
			v := peak * (0.55 + 0.45*math.Sin(2*math.Pi*float64(t)/float64(samples)))
			grp.Load.Append(v)
		}
		ds.Groups = append(ds.Groups, grp)
	}
	return ds
}

func fineCenters(machines int) []*datacenter.Center {
	var b datacenter.Vector
	b[datacenter.CPU] = 0.25
	p := datacenter.HostingPolicy{Name: "fine", Bulk: b, TimeBulk: time.Hour}
	return []*datacenter.Center{datacenter.NewCenter("dc", geo.London, machines, p)}
}

func testGame() *mmog.Game {
	g := mmog.NewGame("test", mmog.GenreMMORPG)
	return g
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("no workloads should error")
	}
	ds := syntheticDataset(2, 10, 1000)
	if _, err := Run(Config{Workloads: []Workload{{Game: testGame()}}}); err == nil {
		t.Error("missing dataset should error")
	}
	if _, err := Run(Config{Workloads: []Workload{{Game: testGame(), Dataset: ds}}}); err == nil {
		t.Error("dynamic mode without predictor should error")
	}
	short := syntheticDataset(1, 1, 100)
	if _, err := Run(Config{Static: true,
		Workloads: []Workload{{Game: testGame(), Dataset: short}}}); err == nil {
		t.Error("too-short dataset should error")
	}
	mixed := []Workload{
		{Game: testGame(), Dataset: syntheticDataset(1, 10, 100), Predictor: predict.NewLastValue()},
		{Game: testGame(), Dataset: syntheticDataset(1, 20, 100), Predictor: predict.NewLastValue()},
	}
	if _, err := Run(Config{Workloads: mixed, Centers: fineCenters(10)}); err == nil {
		t.Error("length mismatch should error")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name    string
		reserve float64
		margin  float64
		valid   bool
	}{
		{"reserve 0.99", 0.99, 0, true},
		{"reserve 1", 1, 0, false},
		{"reserve negative", -0.1, 0, false},
		{"reserve NaN", nan, 0, false},
		{"reserve +Inf", inf, 0, false},
		{"reserve -Inf", -inf, 0, false},
		{"margin 0.1", 0, 0.1, true},
		{"margin -0.5", 0, -0.5, true},
		{"margin -1", 0, -1, false},
		{"margin NaN", 0, nan, false},
		{"margin +Inf", 0, inf, false},
		{"margin -Inf", 0, -inf, false},
	} {
		_, err := Run(Config{
			Workloads: []Workload{{Game: testGame(), Dataset: syntheticDataset(1, 10, 100),
				Predictor: predict.NewLastValue()}},
			Centers:             fineCenters(10),
			Brownout:            true,
			BrownoutReserveFrac: tc.reserve,
			SafetyMargin:        tc.margin,
		})
		if (err == nil) != tc.valid {
			t.Errorf("%s: Run error %v, want valid=%v", tc.name, err, tc.valid)
		}
	}
}

func TestStaticNeverUnderAllocates(t *testing.T) {
	ds := syntheticDataset(3, 200, 1800)
	res, err := Run(Config{
		Static:    true,
		Workloads: []Workload{{Game: testGame(), Dataset: ds}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 0 {
		t.Fatalf("static allocation had %d events", res.Events)
	}
	for r, u := range res.AvgUnderPct {
		if u != 0 {
			t.Fatalf("static under-allocation of %v = %v", datacenter.Resource(r), u)
		}
	}
	// Over-allocation must be positive: peak sizing wastes off-peak.
	if res.AvgOverPct[datacenter.CPU] <= 0 {
		t.Fatalf("static CPU over-allocation = %v", res.AvgOverPct[datacenter.CPU])
	}
}

func TestDynamicBeatsStaticOnOverAllocation(t *testing.T) {
	mk := func(static bool) *Result {
		ds := syntheticDataset(3, 300, 1800)
		cfg := Config{
			Static:  static,
			Centers: fineCenters(20),
			Workloads: []Workload{{
				Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
			}},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	static := mk(true)
	dynamic := mk(false)
	if dynamic.AvgOverPct[datacenter.CPU] >= static.AvgOverPct[datacenter.CPU] {
		t.Fatalf("dynamic %v should beat static %v",
			dynamic.AvgOverPct[datacenter.CPU], static.AvgOverPct[datacenter.CPU])
	}
}

func TestDynamicAllocationCoversSmoothLoad(t *testing.T) {
	ds := syntheticDataset(2, 720, 1000)
	res, err := Run(Config{
		Centers: fineCenters(20),
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A smooth sinusoid predicted by last-value, with bulk-rounding
	// slack, should rarely under-allocate.
	if res.Events > res.Ticks/10 {
		t.Fatalf("%d/%d events on a smooth load", res.Events, res.Ticks)
	}
	if res.Unmet != 0 {
		t.Fatalf("capacity should suffice, %d unmet ticks", res.Unmet)
	}
}

func TestLatencyBoundCausesUnmet(t *testing.T) {
	ds := syntheticDataset(2, 50, 1500)
	game := testGame()
	game.LatencyKm = 100 // the only center is in Sydney
	var b datacenter.Vector
	b[datacenter.CPU] = 0.25
	p := datacenter.HostingPolicy{Name: "x", Bulk: b, TimeBulk: time.Hour}
	centers := []*datacenter.Center{datacenter.NewCenter("sydney", geo.Sydney, 50, p)}
	res, err := Run(Config{
		Centers:   centers,
		Workloads: []Workload{{Game: game, Dataset: ds, Predictor: predict.NewLastValue()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unmet == 0 {
		t.Fatal("no admissible center should leave demand unmet")
	}
	if res.Events == 0 {
		t.Fatal("unmet demand should surface as under-allocation events")
	}
}

func TestCumEventsMonotone(t *testing.T) {
	ds := trace.Generate(trace.Config{Seed: 5, Days: 1,
		Regions: []trace.Region{{ID: 0, Name: "Europe", Location: geo.London, Groups: 5}}})
	res, err := Run(Config{
		Centers: fineCenters(10),
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds, Predictor: predict.NewMovingAverage(6),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CumEvents) != res.Ticks {
		t.Fatalf("CumEvents length %d != ticks %d", len(res.CumEvents), res.Ticks)
	}
	for i := 1; i < len(res.CumEvents); i++ {
		if res.CumEvents[i] < res.CumEvents[i-1] {
			t.Fatal("cumulative events decreased")
		}
	}
	if res.CumEvents[len(res.CumEvents)-1] != res.Events {
		t.Fatal("final cumulative != total events")
	}
}

func TestUpdateModelComplexityIncreasesOverAllocation(t *testing.T) {
	// Table VI shape: higher interaction complexity -> more relative
	// over-allocation under bulk rounding (demands shrink, bulks do
	// not).
	run := func(m mmog.UpdateModel) float64 {
		ds := syntheticDataset(4, 200, 1400)
		g := mmog.NewGame("g", mmog.GenreMMORPG)
		g.Update = m
		res, err := Run(Config{
			Centers:   fineCenters(30),
			Workloads: []Workload{{Game: g, Dataset: ds, Predictor: predict.NewLastValue()}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgOverPct[datacenter.CPU]
	}
	linear := run(mmog.UpdateLinear)
	cubic := run(mmog.UpdateCubic)
	if cubic <= linear {
		t.Fatalf("O(n^3) over-allocation %v should exceed O(n) %v", cubic, linear)
	}
}

func TestCenterStatsTracking(t *testing.T) {
	ds := syntheticDataset(2, 100, 1500)
	centers := fineCenters(20)
	res, err := Run(Config{
		Centers:      centers,
		TrackCenters: true,
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := res.CenterStats["dc"]
	if cs == nil {
		t.Fatal("missing center stats")
	}
	if cs.AvgAllocatedCPU <= 0 {
		t.Fatalf("avg allocated CPU = %v", cs.AvgAllocatedCPU)
	}
	if cs.AvgAllocatedCPU+cs.AvgFreeCPU > 20*datacenter.PerMachineCapacity[datacenter.CPU]+1e-6 {
		t.Fatal("allocated+free exceeds capacity")
	}
	if cs.AllocatedByRegion["Europe"] <= 0 {
		t.Fatal("region attribution missing")
	}
}

func TestMultipleWorkloadsShareCapacity(t *testing.T) {
	dsA := syntheticDataset(2, 100, 1500)
	dsB := syntheticDataset(2, 100, 1500)
	gA := mmog.NewGame("A", mmog.GenreRPG)
	gB := mmog.NewGame("B", mmog.GenreMMORPG)
	res, err := Run(Config{
		Centers: fineCenters(30),
		Workloads: []Workload{
			{Game: gA, Dataset: dsA, Predictor: predict.NewLastValue()},
			{Game: gB, Dataset: dsB, Predictor: predict.NewLastValue()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks != 99 {
		t.Fatalf("ticks = %d", res.Ticks)
	}
}

func TestDuplicateGameNamesRejected(t *testing.T) {
	// Two games sharing a name would silently merge their per-game
	// accounting (gameAlloc/gameShort/AvgUnderByGame).
	mk := func() Workload {
		return Workload{Game: mmog.NewGame("same", mmog.GenreMMORPG),
			Dataset: syntheticDataset(1, 10, 100), Predictor: predict.NewLastValue()}
	}
	_, err := Run(Config{Centers: fineCenters(10), Workloads: []Workload{mk(), mk()}})
	if err == nil {
		t.Fatal("duplicate game names should error")
	}
}

func TestFailureValidation(t *testing.T) {
	ds := syntheticDataset(1, 20, 500)
	base := Config{
		Centers:   fineCenters(10),
		Workloads: []Workload{{Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue()}},
	}
	neg := base
	neg.Faults = &faults.Config{ScheduledOutages: []faults.CenterOutage{{Center: "dc", Start: -1, Duration: 5}}}
	if _, err := Run(neg); err == nil {
		t.Error("negative AtTick should error")
	}
	// DurationTicks <= 0 used to Fail() and Recover() the center in
	// the same tick, dropping every lease as a side effect.
	zero := base
	zero.Faults = &faults.Config{ScheduledOutages: []faults.CenterOutage{{Center: "dc", Start: 5, Duration: 0}}}
	if _, err := Run(zero); err == nil {
		t.Error("DurationTicks=0 should error")
	}
}

func TestFailureAtTickZeroFiresBeforeBootstrap(t *testing.T) {
	// A tick-0 outage used to be skipped entirely (the tick loop
	// starts at t=1). It must take the center down before the
	// bootstrap acquire, so the run starts with no allocation at all.
	ds := syntheticDataset(2, 60, 1000)
	centers := fineCenters(20)
	res, err := Run(Config{
		Centers: centers,
		Faults:  &faults.Config{ScheduledOutages: []faults.CenterOutage{{Center: "dc", Start: 0, Duration: 10}}},
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tick 1 (UnderPct[0]) scores with the only center dark since
	// before bootstrap: a deep shortfall.
	if res.UnderPct[0] > -10 {
		t.Fatalf("tick-1 under-allocation = %v, want deep dip from tick-0 outage", res.UnderPct[0])
	}
	// After recovery at tick 10 the operator re-acquires within a
	// tick; tick 12 (UnderPct[11]) is healthy again.
	if res.UnderPct[11] < -provision.SignificantUnderPct {
		t.Fatalf("post-recovery under-allocation = %v, want healed", res.UnderPct[11])
	}
	if centers[0].Offline() {
		t.Fatal("center should be back online")
	}
}

func TestAvgOverPctNaNWhenResourceNeverLoaded(t *testing.T) {
	// A zero-load trace produces zero demand on every resource: the
	// over-allocation ratio is undefined, reported as NaN (and
	// rendered "n/a" by the formatting layers).
	ds := syntheticDataset(1, 10, 0)
	res, err := Run(Config{
		Centers:   fineCenters(5),
		Workloads: []Workload{{Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range res.AvgOverPct {
		if !math.IsNaN(v) {
			t.Errorf("AvgOverPct[%d] = %v, want NaN on a never-loaded resource", r, v)
		}
	}
}

func TestSafetyMarginReducesEvents(t *testing.T) {
	mk := func(margin float64) int {
		ds := trace.Generate(trace.Config{Seed: 11, Days: 1,
			Regions: []trace.Region{{ID: 0, Name: "Europe", Location: geo.London, Groups: 8}}})
		res, err := Run(Config{
			Centers:      fineCenters(20),
			SafetyMargin: margin,
			Workloads: []Workload{{
				Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Events
	}
	if with, without := mk(0.3), mk(0); with > without {
		t.Fatalf("margin events %d should not exceed no-margin %d", with, without)
	}
}
