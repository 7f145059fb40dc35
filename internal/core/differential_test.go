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
	"mmogdc/internal/operator"
	"mmogdc/internal/predict"
	"mmogdc/internal/trace"
)

// TestCoreAndOperatorDecideAlike is the differential test of the two
// engines' shared provisioning step: one single-group trace runs
// through core.Run and through an operator with one zone, on
// identically built centers, under the same fault plan: its scheduled
// outages, injected rejections and partial grants. Every matcher decision
// must match record for record — candidates, dispositions, CPU, unmet
// CPU — at operator tick = core tick + 1 (the operator counts the
// snapshot it just scored), and so must the acquisition counters.
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
			res, err := run(Config{
				Workloads: []Workload{{Game: game, Dataset: ds, Predictor: tc.pred}},
				Centers:   centers(),
				Faults:    &fcfg,
				Workers:   1,
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
				Matcher: m,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Core acquires on ticks 0..samples-2 (the last tick is only
			// scored), so the operator observes the same samples.
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
