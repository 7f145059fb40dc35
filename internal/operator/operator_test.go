package operator

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
)

var t0 = time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)

func testMatcher(machines int) *ecosystem.Matcher {
	var b datacenter.Vector
	b[datacenter.CPU] = 0.05
	p := datacenter.HostingPolicy{Name: "fine", Bulk: b, TimeBulk: time.Hour}
	return ecosystem.NewMatcher([]*datacenter.Center{
		datacenter.NewCenter("dc", geo.London, machines, p),
	})
}

func testOperator(t *testing.T, machines int) *Operator {
	t.Helper()
	op, err := New(Config{
		Game:      mmog.NewGame("op", mmog.GenreMMORPG),
		Origin:    geo.London,
		Predictor: predict.NewLastValue(),
		Matcher:   testMatcher(machines),
	})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestNewValidation(t *testing.T) {
	base := Config{
		Game:      mmog.NewGame("g", mmog.GenreRPG),
		Predictor: predict.NewLastValue(),
		Matcher:   testMatcher(1),
	}
	for _, strip := range []func(*Config){
		func(c *Config) { c.Game = nil },
		func(c *Config) { c.Predictor = nil },
		func(c *Config) { c.Matcher = nil },
	} {
		c := base
		strip(&c)
		if _, err := New(c); err == nil {
			t.Error("invalid config accepted")
		}
	}
	if _, err := New(base); err != nil {
		t.Fatal(err)
	}
}

func TestOperatorTracksSteadyLoad(t *testing.T) {
	op := testOperator(t, 10)
	now := t0
	loads := []float64{800, 600, 400} // three zones
	for i := 0; i < 50; i++ {
		if err := op.Observe(now, loads); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	m := op.Metrics()
	if m.Ticks != 50 {
		t.Fatalf("ticks = %d", m.Ticks)
	}
	// After the first tick the allocation covers the constant load.
	if m.AvgShortfall > 0.1 {
		t.Fatalf("steady-load shortfall = %v", m.AvgShortfall)
	}
	if m.Events > 1 {
		t.Fatalf("steady-load events = %d", m.Events)
	}
	if f := op.Forecast(); len(f) != 3 || math.Abs(f[0]-800) > 1e-9 {
		t.Fatalf("forecast = %v", f)
	}
}

func TestOperatorStarvedEcosystem(t *testing.T) {
	op := testOperator(t, 0) // no machines at all
	now := t0
	for i := 0; i < 10; i++ {
		if err := op.Observe(now, []float64{1500}); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	m := op.Metrics()
	if m.AvgShortfall <= 0 {
		t.Fatal("starved operator reported no shortfall")
	}
	if m.Events < 9 {
		t.Fatalf("starved operator events = %d", m.Events)
	}
}

// TestOperatorOversizedZoneLeasesWholeCenter: a fresh operator on one
// 50-machine center leases the whole center for one zone whose demand
// exceeds it, however far: at 1e12 entities the demand is about 1e12
// CPU bulks, at 1e100 more bulks than an int holds.
func TestOperatorOversizedZoneLeasesWholeCenter(t *testing.T) {
	for _, entities := range []float64{1e12, 1e100} {
		op := testOperator(t, 50)
		if err := op.Observe(t0, []float64{entities}); err != nil {
			t.Fatal(err)
		}
		c := op.cfg.Matcher.Centers()[0]
		if got, want := c.Allocated()[datacenter.CPU], c.Capacity()[datacenter.CPU]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%g entities: leased %v of the center's %v CPU", entities, got, want)
		}
	}
}

func TestOperatorZoneCountFixedByFirstObserve(t *testing.T) {
	op := testOperator(t, 5)
	if err := op.Observe(t0, []float64{100, 200}); err != nil {
		t.Fatal(err)
	}
	if err := op.Observe(t0.Add(2*time.Minute), []float64{100}); err == nil {
		t.Fatal("zone-count change should error")
	}
}

// TestOperatorCarriesForwardDroppedSamples: NaN, +Inf and -Inf samples
// are each a monitoring dropout, carried forward and counted.
func TestOperatorCarriesForwardDroppedSamples(t *testing.T) {
	op := testOperator(t, 10)
	now := t0
	dropouts := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 10; i++ {
		loads := []float64{800, 600}
		if i >= 5 && i < 8 {
			loads[0] = dropouts[i-5] // zone 0's monitoring drops out
		}
		if err := op.Observe(now, loads); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	m := op.Metrics()
	if m.DroppedSamples != 3 {
		t.Fatalf("dropped samples = %d, want 3", m.DroppedSamples)
	}
	// The carried-forward value keeps the forecast and scoring sane.
	if f := op.Forecast(); !(math.Abs(f[0]-800) <= 1e-9) {
		t.Fatalf("forecast after dropout = %v", f)
	}
	if !(math.Abs(m.AvgShortfall) < math.Inf(1)) || !(math.Abs(m.AvgOverPct) < math.Inf(1)) {
		t.Fatalf("dropout poisoned the metrics: shortfall %v, over-allocation %v", m.AvgShortfall, m.AvgOverPct)
	}
	if m.AvgShortfall > 0.1 {
		t.Fatalf("steady-load shortfall with dropouts = %v", m.AvgShortfall)
	}
}

func TestOperatorFailsOverWhenCenterDies(t *testing.T) {
	var b datacenter.Vector
	b[datacenter.CPU] = 0.05
	p := datacenter.HostingPolicy{Name: "fine", Bulk: b, TimeBulk: time.Hour}
	a := datacenter.NewCenter("a", geo.London, 10, p)
	c := datacenter.NewCenter("b", geo.London, 10, p)
	op, err := New(Config{
		Game:      mmog.NewGame("op", mmog.GenreMMORPG),
		Origin:    geo.London,
		Predictor: predict.NewLastValue(),
		Matcher:   ecosystem.NewMatcher([]*datacenter.Center{a, c}),
	})
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	for i := 0; i < 5; i++ {
		if err := op.Observe(now, []float64{900}); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	// Kill whichever center actually holds the leases.
	victim, survivor := a, c
	if c.Allocated()[datacenter.CPU] > a.Allocated()[datacenter.CPU] {
		victim, survivor = c, a
	}
	victim.Fail()
	for i := 0; i < 5; i++ {
		if err := op.Observe(now, []float64{900}); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	m := op.Metrics()
	if m.Failovers == 0 {
		t.Fatal("center failure produced no failover")
	}
	if survivor.Allocated()[datacenter.CPU] <= 0 {
		t.Fatal("failover did not re-acquire from the surviving center")
	}
	if victim.Allocated()[datacenter.CPU] != 0 {
		t.Fatal("failed center still holds allocation")
	}
}

// rejectAll is a GrantFaults injector that refuses every grant.
type rejectAll struct{}

func (rejectAll) GrantFault(string) (bool, float64) { return true, 0 }

func TestOperatorBacksOffAfterRejections(t *testing.T) {
	m := testMatcher(10)
	m.SetFaultInjector(rejectAll{})
	op, err := New(Config{
		Game:      mmog.NewGame("op", mmog.GenreMMORPG),
		Origin:    geo.London,
		Predictor: predict.NewLastValue(),
		Matcher:   m,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	for i := 0; i < 24; i++ {
		if err := op.Observe(now, []float64{900}); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	mt := op.Metrics()
	if mt.Rejections == 0 {
		t.Fatal("reject-all injector produced no rejections")
	}
	// Backoff (1, 2, 4, 8 ticks) means far fewer attempts than ticks:
	// attempts at ticks 1, 2, 4, 8, 16, 24 → 6 rejections in 24 ticks.
	if mt.Rejections >= mt.Ticks/2 {
		t.Fatalf("rejections = %d over %d ticks; backoff not applied", mt.Rejections, mt.Ticks)
	}
	if mt.Retries == 0 {
		t.Fatal("backed-off attempts were not counted as retries")
	}
}

func TestOperatorLeasesRespectLatency(t *testing.T) {
	var b datacenter.Vector
	b[datacenter.CPU] = 0.05
	p := datacenter.HostingPolicy{Name: "x", Bulk: b, TimeBulk: time.Hour}
	sydney := datacenter.NewCenter("sydney", geo.Sydney, 10, p)
	game := mmog.NewGame("fps", mmog.GenreFPS)
	game.LatencyKm = geo.Far.MaxDistanceKm()
	op, err := New(Config{
		Game:      game,
		Origin:    geo.London,
		Predictor: predict.NewLastValue(),
		Matcher:   ecosystem.NewMatcher([]*datacenter.Center{sydney}),
	})
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	for i := 0; i < 5; i++ {
		if err := op.Observe(now, []float64{1200}); err != nil {
			t.Fatal(err)
		}
		now = now.Add(2 * time.Minute)
	}
	if got := sydney.Allocated()[datacenter.CPU]; got != 0 {
		t.Fatalf("latency-bound game leased %v CPU in Sydney", got)
	}
	if op.Metrics().AvgShortfall <= 0 {
		t.Fatal("unservable game reported no shortfall")
	}
}
