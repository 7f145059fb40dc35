package core

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/faults"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/operator"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

// TestCoreAndOperatorDecideAlike is the differential test of the two
// engines' shared provisioning step and scorer: one single-group trace
// runs through core.Run and through an operator with one zone, on
// identically built centers, under the same fault plan: its scheduled
// outages, injected rejections and partial grants. Every matcher decision
// must match record for record — candidates, dispositions, CPU, unmet
// CPU — at operator tick = core tick + 1 (the operator counts the
// snapshot it just scored), and so must the acquisition counters. The
// operator's snapshot k scores what core's tick k scores: after it, the
// operator's event count and mean CPU over-allocation equal core's up
// to tick k, bit for bit, and so does every breach event it records.
func TestCoreAndOperatorDecideAlike(t *testing.T) {
	ds := trace.Generate(trace.Config{Seed: 5, Days: 1, Regions: []trace.Region{
		{ID: 0, Name: "Europe", Location: geo.London, Groups: 1},
	}})
	group, region := ds.Groups[0], ds.Regions[0]
	samples := ds.Samples()
	game := mmog.NewGame("diff", mmog.GenreMMORPG)
	// Small centers near the players, so grants spill across centers and
	// the outage of the preferred one forces real failovers.
	centers := func() []*datacenter.Center {
		var bulk datacenter.Vector
		bulk[datacenter.CPU] = 0.25
		p := datacenter.HostingPolicy{Name: "fine", Bulk: bulk, TimeBulk: time.Hour}
		return []*datacenter.Center{
			datacenter.NewCenter("london", geo.London, 1, p),
			datacenter.NewCenter("amsterdam", geo.Amsterdam, 1, p),
			datacenter.NewCenter("nyc", geo.NewYork, 4, p),
		}
	}
	names := []string{"london", "amsterdam", "nyc"}
	fcfg := faults.Config{
		Seed: 11, RejectProb: 0.3, PartialGrantProb: 0.2,
		ScheduledOutages: []faults.CenterOutage{
			{Center: "london", Start: 200, Duration: 30},
			{Center: "amsterdam", Start: 210, Duration: 40},
			{Center: "london", Start: 500, Duration: 10},
		},
	}

	for _, tc := range []struct {
		name string
		pred predict.Factory
	}{
		{"lastvalue", predict.NewLastValue()},
		{"ar", predict.NewAR(3, 6, 32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coreLog := ecosystem.NewDecisionLog(2 * samples)
			coreObs, opObs := breachObs(samples), breachObs(samples)
			res, err := run(Config{
				Workloads: []Workload{{Game: game, Dataset: ds, Predictor: tc.pred}},
				Centers:   centers(),
				Faults:    &fcfg,
				Workers:   1,
				Obs:       coreObs,
			}, coreLog)
			if err != nil {
				t.Fatal(err)
			}

			m := ecosystem.NewMatcher(centers())
			plan := faults.NewPlan(fcfg, names, samples)
			m.SetFaultInjector(plan)
			opLog := ecosystem.NewDecisionLog(2 * samples)
			m.SetDecisionLog(opLog)
			op, err := operator.New(operator.Config{
				Game: game, Origin: region.Location, Predictor: tc.pred,
				Matcher: m, Obs: opObs,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Core acquires on ticks 0..samples-2 (the last tick is only
			// scored), so the operator observes the same samples.
			overSum := 0.0
			for k := 0; k < samples-1; k++ {
				// Recoveries first, as core applies them.
				for _, o := range plan.RecoveriesAt(k) {
					m.CenterByName(o.Center).Recover()
				}
				for _, o := range plan.FailuresAt(k) {
					m.CenterByName(o.Center).Fail()
				}
				now := group.Load.Start.Add(time.Duration(k) * group.Load.Tick)
				if err := op.Observe(now, []float64{group.Load.At(k)}); err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					continue // neither engine scores its first observation
				}
				overSum += res.OverPct[k-1]
				om, mean := op.Metrics(), overSum/float64(k)
				if om.Events != res.CumEvents[k-1] || math.Float64bits(om.AvgOverPct) != math.Float64bits(mean) {
					t.Fatalf("tick %d: operator scores %d events and %v%% over-allocation, core %d and %v%%",
						k, om.Events, om.AvgOverPct, res.CumEvents[k-1], mean)
				}
			}
			cb, ob := breaches(t, coreObs, samples-1), breaches(t, opObs, samples-1)
			if len(cb) != len(ob) || len(cb) == 0 {
				t.Fatalf("core records %d breaches before its last tick, operator %d", len(cb), len(ob))
			}
			for i := range cb {
				if cb[i].Tick != ob[i].Tick || math.Float64bits(cb[i].Value) != math.Float64bits(ob[i].Value) {
					t.Fatalf("breach %d: core %+v, operator %+v", i, cb[i], ob[i])
				}
			}

			cd, od := coreLog.Snapshot(), opLog.Snapshot()
			if len(cd) != len(od) {
				t.Fatalf("core made %d decisions, operator %d", len(cd), len(od))
			}
			for i := range cd {
				c, o := cd[i], od[i]
				if o.Tick != c.Tick+1 || len(c.Candidates) != len(o.Candidates) ||
					math.Float64bits(c.UnmetCPU) != math.Float64bits(o.UnmetCPU) {
					t.Fatalf("decision %d differs:\n  core     %+v\n  operator %+v", i, c, o)
				}
				for j := range c.Candidates {
					cc, oc := c.Candidates[j], o.Candidates[j]
					if cc.Center != oc.Center || cc.Rank != oc.Rank || cc.Disposition != oc.Disposition ||
						math.Float64bits(cc.CPU) != math.Float64bits(oc.CPU) {
						t.Fatalf("decision %d (core tick %d) candidate %d: core %+v, operator %+v",
							i, c.Tick, j, cc, oc)
					}
				}
			}

			r, om := res.Resilience, op.Metrics()
			if r.Failovers != om.Failovers || r.Retries != om.Retries ||
				r.Rejections != om.Rejections || r.PartialGrants != om.PartialGrants {
				t.Fatalf("counters differ: core failovers/retries/rejections/partial %d/%d/%d/%d, operator %d/%d/%d/%d",
					r.Failovers, r.Retries, r.Rejections, r.PartialGrants,
					om.Failovers, om.Retries, om.Rejections, om.PartialGrants)
			}
			// The scenario must exercise every rule it compares.
			if len(cd) == 0 || r.Failovers == 0 || r.Retries == 0 || r.Rejections == 0 || r.PartialGrants == 0 {
				t.Fatalf("scenario too tame: %d decisions, counters %+v", len(cd), *r)
			}
		})
	}
}

// breachObs is an observability bundle whose recorder keeps every event
// of a one-group run of the given length.
func breachObs(samples int) *obs.Obs {
	o := obs.New()
	o.Recorder = obs.NewRecorder(16 * samples)
	return o
}

// breaches returns the breach events o recorded before tick end; it
// fails if the recorder dropped any event.
func breaches(t *testing.T, o *obs.Obs, end int) []obs.Event {
	t.Helper()
	if n := o.Recorder.Dropped(); n > 0 {
		t.Fatalf("the recorder dropped %d events", n)
	}
	var out []obs.Event
	for _, e := range o.Recorder.Events() {
		if e.Kind == obs.EventBreach && e.Tick < end {
			out = append(out, e)
		}
	}
	return out
}
