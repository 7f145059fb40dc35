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

// nanPredictor misbehaves on purpose: it forecasts NaN, then +Inf,
// then negative values, cycling.
type nanPredictor struct{ n int }

func (p *nanPredictor) Name() string    { return "nan" }
func (p *nanPredictor) Observe(float64) { p.n++ }
func (p *nanPredictor) Predict() float64 {
	switch p.n % 3 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	default:
		return -100
	}
}

// TestInfiniteSampleIsADropout: a trace sample of +Inf or -Inf is a
// monitoring dropout, as a NaN one is. With the neural predictor, whose
// online training an infinite sample would turn NaN, and in static
// mode, whose peak sizing it would make infinite, the run's Result
// equals the NaN run's, one dropped sample included.
func TestInfiniteSampleIsADropout(t *testing.T) {
	run := func(sample float64, static bool) *Result {
		t.Helper()
		ds := syntheticDataset(2, 300, 900)
		ds.Groups[0].Load.Values[200] = sample
		res, err := Run(Config{
			Centers: fineCenters(40),
			Static:  static,
			Workloads: []Workload{{Game: testGame(), Dataset: ds,
				Predictor: predict.NewNeural(predict.NeuralConfig{Seed: 1, Capacity: 1000})}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, static := range []bool{false, true} {
		want := run(math.NaN(), static)
		if want.Resilience.DroppedSamples != 1 {
			t.Fatalf("static %v: %d dropped samples, want 1", static, want.Resilience.DroppedSamples)
		}
		for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
			assertResultsEqual(t, want, run(inf, static))
		}
	}
}

func TestMisbehavingPredictorDoesNotPoisonMetrics(t *testing.T) {
	ds := syntheticDataset(2, 60, 900)
	res, err := Run(Config{
		Centers: fineCenters(10),
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds,
			Predictor: func() predict.Predictor { return &nanPredictor{} },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range res.AvgOverPct {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("over-allocation of %v is %v", datacenter.Resource(r), v)
		}
	}
	for r, v := range res.AvgUnderPct {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("under-allocation of %v is %v", datacenter.Resource(r), v)
		}
	}
	// A predictor that never requests anything leaves everything
	// under-allocated: events on every tick.
	if res.Events != res.Ticks {
		t.Errorf("events = %d, want every tick (%d)", res.Events, res.Ticks)
	}
}

func TestNoCentersMeansFullyUnmet(t *testing.T) {
	ds := syntheticDataset(2, 40, 900)
	res, err := Run(Config{
		Centers: nil,
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unmet != res.Ticks-1 && res.Unmet != res.Ticks {
		t.Fatalf("unmet = %d of %d ticks with no centers", res.Unmet, res.Ticks)
	}
	if res.Events != res.Ticks {
		t.Fatalf("every tick should be an event with no capacity, got %d/%d", res.Events, res.Ticks)
	}
}

func TestOutageHeavyTraceHandled(t *testing.T) {
	// Failure injection: a trace where outages constantly zero groups.
	ds := trace.Generate(trace.Config{
		Seed: 5, Days: 1, OutageRatePerDay: 40,
		Regions: []trace.Region{{ID: 0, Name: "Europe", Location: geo.London, Groups: 6}},
	})
	res, err := Run(Config{
		Centers: fineCenters(20),
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.OverPct {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("outage trace produced non-finite over-allocation")
		}
	}
}

func TestSimulationInvariantsAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ds := trace.Generate(trace.Config{
			Seed: seed, Days: 1,
			Regions: []trace.Region{{ID: 0, Name: "Europe", Location: geo.London, Groups: 5}},
		})
		res, err := Run(Config{
			Centers: fineCenters(15),
			Workloads: []Workload{{
				Game: testGame(), Dataset: ds, Predictor: predict.NewExpSmoothing(0.5, "e"),
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.OverPct) != res.Ticks || len(res.UnderPct) != res.Ticks || len(res.CumEvents) != res.Ticks {
			t.Fatalf("seed %d: series lengths inconsistent with ticks", seed)
		}
		for i, u := range res.UnderPct {
			if u > 1e-9 {
				t.Fatalf("seed %d: positive under-allocation %v at tick %d", seed, u, i)
			}
		}
		for i := 1; i < len(res.CumEvents); i++ {
			if res.CumEvents[i] < res.CumEvents[i-1] {
				t.Fatalf("seed %d: cumulative events decreased", seed)
			}
		}
		for r, v := range res.AvgUnderPct {
			if v > 1e-9 {
				t.Fatalf("seed %d: positive avg under-allocation %v for %v", seed, v, datacenter.Resource(r))
			}
		}
	}
}

func TestCentersNeverOverCommittedDuringRun(t *testing.T) {
	ds := trace.Generate(trace.Config{
		Seed: 9, Days: 1,
		Regions: []trace.Region{{ID: 0, Name: "Europe", Location: geo.London, Groups: 8}},
	})
	var b datacenter.Vector
	b[datacenter.CPU] = 0.25
	p := datacenter.HostingPolicy{Name: "x", Bulk: b, TimeBulk: time.Hour}
	centers := []*datacenter.Center{
		datacenter.NewCenter("a", geo.London, 3, p),
		datacenter.NewCenter("b", geo.London, 3, p),
	}
	_, err := Run(Config{
		Centers: centers,
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range centers {
		if !c.Allocated().FitsWithin(c.Capacity()) {
			t.Fatalf("center %s over-committed: %v > %v", c.Name, c.Allocated(), c.Capacity())
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *Result {
		ds := trace.Generate(trace.Config{
			Seed: 77, Days: 1,
			Regions: []trace.Region{{ID: 0, Name: "Europe", Location: geo.London, Groups: 4}},
		})
		res, err := Run(Config{
			Centers: fineCenters(10),
			Workloads: []Workload{{
				Game: testGame(), Dataset: ds,
				Predictor: predict.NewNeural(predict.PaperNeuralConfig(5)),
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Events != b.Events || a.Unmet != b.Unmet {
		t.Fatalf("runs diverged: events %d/%d unmet %d/%d", a.Events, b.Events, a.Unmet, b.Unmet)
	}
	for i := range a.OverPct {
		if a.OverPct[i] != b.OverPct[i] {
			t.Fatalf("over-allocation series diverged at tick %d", i)
		}
	}
}

func TestUpdateModelSweepEventOrdering(t *testing.T) {
	// Fig. 10's shape in miniature: with the machine-based Y
	// denominator, the cubic model accumulates at least as many events
	// as the linear one on the same trace.
	run := func(m mmog.UpdateModel) int {
		ds := trace.Generate(trace.Config{Seed: 31, Days: 2,
			Regions: []trace.Region{{ID: 0, Name: "Europe", Location: geo.London, Groups: 10}}})
		g := mmog.NewGame("x", mmog.GenreMMORPG)
		g.Update = m
		res, err := Run(Config{
			Centers:   fineCenters(40),
			Workloads: []Workload{{Game: g, Dataset: ds, Predictor: predict.NewLastValue()}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Events
	}
	linear := run(mmog.UpdateLinear)
	cubic := run(mmog.UpdateCubic)
	if cubic < linear {
		t.Fatalf("cubic events %d < linear events %d", cubic, linear)
	}
}

func TestFailureInjectionCausesAndHealsDisruption(t *testing.T) {
	ds := syntheticDataset(4, 200, 1200)
	game := testGame()
	centers := fineCenters(20)
	res, err := Run(Config{
		Centers: centers,
		Faults:  &faults.Config{ScheduledOutages: []faults.CenterOutage{{Center: "dc", Start: 100, Duration: 30}}},
		Workloads: []Workload{{
			Game: game, Dataset: ds, Predictor: predict.NewLastValue(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The tick after the failure shows a deep shortfall (the only
	// center died), and the operator recovers once it is back.
	atFailure := res.UnderPct[99] // tick index 100 scores at position 99
	if atFailure > -10 {
		t.Fatalf("failure tick under-allocation = %v, want deep dip", atFailure)
	}
	// While the only center is down, shortfalls persist; after
	// recovery (tick 130) the operator re-acquires within a tick.
	after := res.UnderPct[131]
	if after < -1 {
		t.Fatalf("post-recovery under-allocation = %v, want healed", after)
	}
	if centers[0].Offline() {
		t.Fatal("center should be recovered at the end")
	}
}

func TestFailureUnknownCenterRejected(t *testing.T) {
	// A failure naming no configured center used to be silently
	// skipped — a typo in a scenario file meant the outage never
	// happened. It is a configuration error like the other scheduled
	// outage checks.
	ds := syntheticDataset(2, 50, 900)
	_, err := Run(Config{
		Centers: fineCenters(10),
		Faults:  &faults.Config{ScheduledOutages: []faults.CenterOutage{{Center: "nope", Start: 10, Duration: 5}}},
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
		}},
	})
	if err == nil {
		t.Fatal("failure naming an unknown center should be a config error")
	}
}
