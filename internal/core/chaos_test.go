package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

// blackoutConfig builds a two-domain deployment (eu and na-east, per
// geo.RegionOf) whose European capacity hosts most of the load, so a
// scheduled eu blackout forces a correlated mass failover onto the
// surviving domain. Centers are built fresh per call so checkpoint
// tests can restart over the same config.
func blackoutConfig() Config {
	ds := trace.Generate(trace.Config{Seed: 7, Days: 1, Regions: []trace.Region{
		{ID: 0, Name: "Europe", Location: geo.London, Groups: 8},
		{ID: 1, Name: "US East Coast", Location: geo.NewYork, UTCOffsetHours: -5, Groups: 4},
	}})
	var bulk datacenter.Vector
	bulk[datacenter.CPU] = 0.25
	policy := datacenter.HostingPolicy{Name: "fine", Bulk: bulk, TimeBulk: time.Hour}
	// Sized close to the peak demand (~4.5 CPU across all zones), so
	// losing a domain is a real capacity event, not a rounding error.
	centers := []*datacenter.Center{
		datacenter.NewCenter("london", geo.London, 4, policy),
		datacenter.NewCenter("amsterdam", geo.Amsterdam, 3, policy),
		datacenter.NewCenter("nyc", geo.NewYork, 4, policy),
		datacenter.NewCenter("ashburn", geo.Ashburn, 3, policy),
	}
	return Config{
		Centers: centers,
		Workloads: []Workload{{
			Game: mmog.NewGame("chaos", mmog.GenreMMORPG), Dataset: ds,
			Predictor: predict.NewLastValue(),
		}},
		Faults: &faults.Config{
			Seed: 3,
			// The blackout lands on the evening demand peak — the
			// worst case the scenario corpus cares about.
			ScheduledBlackouts: []faults.RegionBlackout{
				{Region: "eu", Start: 480, Duration: 40},
			},
		},
	}
}

// recordedEvents runs cfg with a recorder sink attached and returns the
// result plus every event of the run in record order.
func recordedEvents(t *testing.T, cfg Config) (*Result, []obs.Event) {
	t.Helper()
	o := obs.New()
	var buf bytes.Buffer
	o.Recorder.SetSink(&buf)
	cfg.Obs = o
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
	return res, events
}

// TestRegionBlackoutDownsDomainAndFailsOver: a scheduled eu blackout
// must down both European centers at once, drive failovers onto the
// surviving domain, and heal completely by the end of the run.
func TestRegionBlackoutDownsDomainAndFailsOver(t *testing.T) {
	cfg := blackoutConfig()
	res, events := recordedEvents(t, cfg)
	r := res.Resilience
	if r.RegionBlackouts != 1 {
		t.Fatalf("RegionBlackouts = %d, want 1", r.RegionBlackouts)
	}
	// Both eu centers lose exactly the blackout window; na stays whole.
	for name, want := range map[string]bool{
		"london": true, "amsterdam": true, "nyc": false, "ashburn": false,
	} {
		av := r.Availability[name]
		if want && av >= 1 {
			t.Errorf("center %s availability %v, want < 1 (blacked out)", name, av)
		}
		if !want && av < 1 {
			t.Errorf("center %s availability %v, want 1 (outside the domain)", name, av)
		}
	}
	if r.Outages != 2 || r.FullOutages != 2 {
		t.Errorf("outage windows %d (full %d), want 2 full — one per eu center", r.Outages, r.FullOutages)
	}
	if r.Failovers == 0 {
		t.Error("blackout caused no failovers")
	}
	if r.CapacityRecovered != r.Outages {
		t.Errorf("capacity recovered %d of %d outages", r.CapacityRecovered, r.Outages)
	}
	for _, c := range cfg.Centers {
		if c.AvailableFraction() < 1 {
			t.Errorf("center %s still impaired after the run", c.Name)
		}
	}
	if r.TimeToFullRecoveryTicks < 40 {
		t.Errorf("TimeToFullRecoveryTicks = %d, want >= blackout duration 40", r.TimeToFullRecoveryTicks)
	}
	// The recorder saw the domain-level bracketing events.
	var black, recover int
	for _, e := range events {
		switch e.Kind {
		case obs.EventRegionBlackout:
			black++
			if e.Subject != "eu" {
				t.Errorf("region_blackout subject %q, want eu", e.Subject)
			}
			if e.Tick != 480 {
				t.Errorf("region_blackout at tick %d, want 480", e.Tick)
			}
		case obs.EventRegionRecover:
			recover++
			if e.Tick != 520 {
				t.Errorf("region_recover at tick %d, want 520", e.Tick)
			}
		}
	}
	if black != 1 || recover != 1 {
		t.Errorf("blackout/recover events %d/%d, want 1/1", black, recover)
	}
}

// TestStormControlCapsSameTickFailovers is the acceptance contract of
// the failover budget: with FailoverBudgetPerTick = 1 no tick performs
// more than one failover re-acquisition; the overflow is deferred with
// jittered backoff and eventually served.
func TestStormControlCapsSameTickFailovers(t *testing.T) {
	// Unbudgeted baseline: the blackout must actually cause a failover
	// stampede, or the capped run proves nothing.
	base := blackoutConfig()
	_, baseEvents := recordedEvents(t, base)
	perTick := map[int]int{}
	for _, e := range baseEvents {
		if e.Kind == obs.EventFailover {
			perTick[e.Tick]++
		}
	}
	stampede := 0
	for _, n := range perTick {
		if n > stampede {
			stampede = n
		}
	}
	if stampede < 2 {
		t.Fatalf("baseline blackout never stacked %d >= 2 failovers on one tick — scenario too weak", stampede)
	}

	capped := blackoutConfig()
	capped.FailoverBudgetPerTick = 1
	res, events := recordedEvents(t, capped)
	perTick = map[int]int{}
	deferred := 0
	for _, e := range events {
		switch e.Kind {
		case obs.EventFailover:
			perTick[e.Tick]++
		case obs.EventDeferred:
			deferred++
			if until := int(e.Value); until <= e.Tick {
				t.Errorf("deferred failover retries at tick %d, not after tick %d", until, e.Tick)
			}
		}
	}
	for tick, n := range perTick {
		if n > 1 {
			t.Errorf("tick %d performed %d failovers, budget is 1", tick, n)
		}
	}
	if res.Resilience.FailoversDeferred == 0 || deferred == 0 {
		t.Fatalf("budget 1 under a domain blackout deferred nothing (counter %d, events %d)",
			res.Resilience.FailoversDeferred, deferred)
	}
	// Deferral delays service restoration but must not lose it: the
	// parked zones still re-acquire once their jitter expires.
	if res.Resilience.Failovers == 0 {
		t.Fatal("capped run performed no failovers at all")
	}
	for _, c := range capped.Centers {
		if c.AvailableFraction() < 1 {
			t.Errorf("center %s still impaired after the run", c.Name)
		}
	}
}

// parkWindow is one failover the budget parked: zone's park starting
// at tick from, due at tick due.
type parkWindow struct {
	zone      string
	from, due int
}

// parkWindows lists the parked failovers of an event stream.
func parkWindows(events []obs.Event) []parkWindow {
	var ws []parkWindow
	for _, e := range events {
		if e.Kind == obs.EventDeferred {
			ws = append(ws, parkWindow{zone: e.Subject, from: e.Tick, due: int(e.Value)})
		}
	}
	return ws
}

// TestParkedFailoverHoldsItsGap: a failover the budget parks holds the
// zone's whole gap until it comes due — re-leasing it through the
// normal path in the meantime would let the deferred stampede through
// one tick later.
func TestParkedFailoverHoldsItsGap(t *testing.T) {
	cfg := blackoutConfig()
	cfg.FailoverBudgetPerTick = 1
	_, events := recordedEvents(t, cfg)
	windows := parkWindows(events)
	if len(windows) == 0 {
		t.Fatal("budget 1 under a domain blackout parked nothing")
	}
	for _, e := range events {
		if e.Kind != obs.EventGrant {
			continue
		}
		for _, w := range windows {
			if e.Subject == w.zone && e.Tick >= w.from && e.Tick < w.due {
				t.Errorf("zone %s leased at tick %d inside its park [%d, %d)", w.zone, e.Tick, w.from, w.due)
			}
		}
	}
}

// TestBrownoutShedsByPriority: blacking out the larger domain while
// brownout mode is on must engage shedding — brownout ticks accrue,
// shed zones release their leases, and the accounting (player-ticks,
// transitions, recovery time) is populated; after the region returns
// the run leaves brownout and heals.
func TestBrownoutShedsByPriority(t *testing.T) {
	cfg := blackoutConfig()
	cfg.Brownout = true
	// A stiff reserve makes the post-blackout budget (half the surviving
	// na capacity) fall short of demand while the na zones still hold
	// live leases — so shedding releases real capacity, not tombstones.
	cfg.BrownoutReserveFrac = 0.5
	res, events := recordedEvents(t, cfg)
	r := res.Resilience
	if r.BrownoutTicks == 0 {
		t.Fatal("losing both domains engaged no brownout ticks")
	}
	if r.ShedLeases == 0 || r.ShedPlayerTicks <= 0 {
		t.Fatalf("brownout shed nothing: leases %d, player-ticks %v", r.ShedLeases, r.ShedPlayerTicks)
	}
	var starts, ends, sheds int
	for _, e := range events {
		switch e.Kind {
		case obs.EventBrownoutStart:
			starts++
			if e.Value <= 0 {
				t.Errorf("brownout_start gap %v, want > 0", e.Value)
			}
		case obs.EventBrownoutEnd:
			ends++
		case obs.EventShed:
			sheds++
		}
	}
	if starts == 0 || sheds == 0 {
		t.Fatalf("brownout events missing: %d starts, %d sheds", starts, sheds)
	}
	if ends != starts {
		t.Errorf("%d brownout_start vs %d brownout_end — a brownout episode never closed", starts, ends)
	}
	if r.TimeToFullRecoveryTicks == 0 {
		t.Error("TimeToFullRecoveryTicks = 0 despite an impairment that healed")
	}
	for _, c := range cfg.Centers {
		if c.AvailableFraction() < 1 {
			t.Errorf("center %s still impaired after the run", c.Name)
		}
	}
}

// TestChaosFeaturesAreDeterministic: the full chaos stack — correlated
// blackout, storm control, brownout — replays bit-identically, across
// worker counts.
func TestChaosFeaturesAreDeterministic(t *testing.T) {
	mk := func(workers int) *Result {
		cfg := blackoutConfig()
		cfg.Workers = workers
		cfg.FailoverBudgetPerTick = 2
		cfg.Brownout = true
		cfg.BrownoutReserveFrac = 0.05
		cfg.Faults.RegionMTBFTicks = 250
		cfg.Faults.RegionMTTRTicks = 15
		cfg.Faults.AftershockProb = 0.5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := mk(1), mk(1), mk(4)
	compareResults(t, a, b)
	compareResults(t, a, c)
	compareResilience(t, a.Resilience, b.Resilience)
	compareResilience(t, a.Resilience, c.Resilience)
}

// TestCheckpointResumeMidRegionBlackout is satellite coverage for crash
// recovery under correlated faults: a run killed in the middle of a
// region blackout, while storm control holds parked failovers, must
// resume to a bit-identical Result — the parked state rides the
// checkpoint.
func TestCheckpointResumeMidRegionBlackout(t *testing.T) {
	mk := func() Config {
		cfg := blackoutConfig()
		cfg.FailoverBudgetPerTick = 1
		cfg.Brownout = true
		cfg.BrownoutReserveFrac = 0.1
		cfg.Faults.ScheduledBlackouts = append(cfg.Faults.ScheduledBlackouts,
			faults.RegionBlackout{Region: "na-east", Start: 490, Duration: 20})
		cfg.TrackCenters = true
		return cfg
	}
	ref, events := recordedEvents(t, mk())
	const stop = 485 // inside the eu blackout, with failovers parked

	// The stop tick must fall inside a park that is still held: deferred
	// at or before the stop, due after it, and not dropped by a shed.
	parked := 0
	for _, w := range parkWindows(events) {
		if w.from > stop || w.due <= stop {
			continue
		}
		shed := false
		for _, e := range events {
			if e.Kind == obs.EventShed && e.Subject == w.zone && e.Tick > w.from && e.Tick <= stop {
				shed = true
			}
		}
		if !shed {
			parked++
		}
	}
	if parked == 0 {
		t.Fatalf("no failover is parked at tick %d — the checkpoint carries no park", stop)
	}

	dir := t.TempDir()
	stopped := mk()
	stopped.CheckpointDir = dir
	stopped.CheckpointEveryTicks = 50
	stopped.StopAfterTick = stop
	if _, err := Run(stopped); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}

	resumed := mk()
	resumed.CheckpointDir = dir
	resumed.CheckpointEveryTicks = 50
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFromTick != stop {
		t.Fatalf("resumed from tick %d, want %d", res.ResumedFromTick, stop)
	}
	assertResultsEqual(t, ref, res)
	if ref.Resilience.RegionBlackouts != 2 {
		t.Fatalf("scenario ran %d region blackouts, want 2", ref.Resilience.RegionBlackouts)
	}
}
