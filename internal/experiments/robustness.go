package experiments

import (
	"fmt"
	"strings"

	"mmogdc/internal/core"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/faults"
	"mmogdc/internal/predict"
	"mmogdc/internal/provision"
	"mmogdc/internal/stats"
)

// Ext07Margin sweeps the safety margin on predicted demand — the
// paper's own suggestion for when even rare under-allocation events
// "cannot be tolerated": "a mechanism that allocates more than the
// predicted volume of required resources can be used" (Section V-C).
// The sweep quantifies what each percent of margin buys in events and
// costs in over-allocation.
func Ext07Margin(o Options) (string, error) {
	opts := o.withDefaults()
	ds := provisioningTrace(opts)
	game := standardGame()
	neural := neuralFactory(opts)

	margins := []float64{0, 0.02, 0.05, 0.10, 0.20}
	results, err := parallelMap(len(margins), func(i int) (*core.Result, error) {
		return core.Run(core.Config{
			Centers:      hp12Centers(),
			SafetyMargin: margins[i],
			Workloads:    []core.Workload{{Game: game, Dataset: ds, Predictor: neural}},
		})
	})
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("Extension 7 — safety margin on predicted demand (Sec. V-C's remedy)\n\n")
	var rows [][]string
	for i, res := range results {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", margins[i]*100),
			f2(res.AvgOverPct[datacenter.CPU]),
			f3(res.AvgUnderPct[datacenter.CPU]),
			fmt.Sprintf("%d", res.Events),
		})
	}
	b.WriteString(table([]string{"margin", "over [%]", "under [%]", "events"}, rows))
	b.WriteString("\nA few percent of margin buys the residual under-allocation events away at\n")
	b.WriteString("a proportional over-allocation cost — the knob an operator turns when its\n")
	b.WriteString("game cannot tolerate disruption at all.\n")
	return b.String(), nil
}

// Ext08Failure injects a data-center outage and measures how dynamic
// provisioning absorbs it: the failed center's leases vanish, the
// operator's next two-minute cycle re-acquires the capacity elsewhere.
// A statically-provisioned fleet hosted in the failed center would
// stay dark for the whole outage.
func Ext08Failure(o Options) (string, error) {
	opts := o.withDefaults()
	if !opts.Quick && opts.Days > 4 {
		opts.Days = 4
	}
	ds := provisioningTrace(opts)
	game := standardGame()
	neural := neuralFactory(opts)

	// Fail the largest center for two hours, mid-trace.
	failAt := ds.Samples() / 2
	const outageTicks = 60
	victim := "U.K. (1)" // the center closest to the largest region

	run := func(fc *faults.Config) (*core.Result, error) {
		return core.Run(core.Config{
			Centers:   optimalCenters(),
			Faults:    fc,
			Workloads: []core.Workload{{Game: game, Dataset: ds, Predictor: neural}},
		})
	}
	clean, err := run(nil)
	if err != nil {
		return "", err
	}
	failed, err := run(&faults.Config{ScheduledOutages: []faults.CenterOutage{
		{Center: victim, Start: failAt, Duration: outageTicks},
	}})
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("Extension 8 — data-center outage resilience\n")
	fmt.Fprintf(&b, "(%s offline for %d minutes at mid-trace)\n\n", victim, outageTicks*2)

	// The under-allocation dip around the failure tick.
	window := func(res *core.Result, from, to int) (worst float64) {
		if from < 0 {
			from = 0
		}
		if to > len(res.UnderPct) {
			to = len(res.UnderPct)
		}
		return stats.Min(res.UnderPct[from:to])
	}
	rows := [][]string{
		{"no outage", f3(window(clean, failAt-5, failAt+outageTicks)),
			fmt.Sprintf("%d", clean.Events)},
		{"with outage", f3(window(failed, failAt-5, failAt+outageTicks)),
			fmt.Sprintf("%d", failed.Events)},
	}
	b.WriteString(table([]string{"scenario", "worst under [%] near the outage", "events"}, rows))

	// Recovery time: ticks from the failure until Y returns above the
	// disruption threshold.
	recovery := 0
	for i := failAt - 1; i < len(failed.UnderPct); i++ {
		if failed.UnderPct[i] < -provision.SignificantUnderPct {
			recovery = i - (failAt - 1) + 1
		} else if i > failAt+2 {
			break
		}
	}
	fmt.Fprintf(&b, "\nThe operator re-acquires the lost capacity from other centers within\n")
	fmt.Fprintf(&b, "~%d tick(s) (%d minutes of disrupted play); a static deployment inside the\n",
		recovery, recovery*2)
	fmt.Fprintf(&b, "failed center would have been dark for the full %d minutes.\n", outageTicks*2)
	return b.String(), nil
}

// Ext10Resilience sweeps stochastic fault rates — MTBF/MTTR-driven
// center outages plus grant rejections and monitoring dropouts — and
// compares how dynamic and static provisioning degrade. Ext08 injects
// one scheduled outage; this extension turns the full stochastic
// injector on and raises the rate until the ecosystem is in constant
// churn. A static fleet rides out every outage of its home centers at
// full loss; the dynamic operator fails over within a tick and only
// the ecosystem-wide capacity dips remain.
func Ext10Resilience(o Options) (string, error) {
	opts := o.withDefaults()
	if !opts.Quick && opts.Days > 4 {
		opts.Days = 4
	}
	ds := provisioningTrace(opts)
	game := standardGame()
	neural := neuralFactory(opts)
	ticks := ds.Samples()

	// Fault mixes scaled to the trace length: MTBF as a share of the
	// run so quick mode still sees several outages per scenario.
	scenarios := []struct {
		name string
		cfg  *faults.Config
	}{
		{"none", nil},
		{"rare", &faults.Config{Seed: opts.Seed, MTBFTicks: float64(ticks) / 3,
			MTTRTicks: 30, DegradedShare: 0.5}},
		{"frequent", &faults.Config{Seed: opts.Seed, MTBFTicks: float64(ticks) / 8,
			MTTRTicks: 30, DegradedShare: 0.5, RejectProb: 0.02, DropoutProb: 0.02}},
		{"chaos", &faults.Config{Seed: opts.Seed, MTBFTicks: float64(ticks) / 20,
			MTTRTicks: 30, DegradedShare: 0.5, RejectProb: 0.05,
			PartialGrantProb: 0.05, DropoutProb: 0.05}},
	}

	type pair struct{ dyn, stat *core.Result }
	results, err := parallelMap(len(scenarios), func(i int) (pair, error) {
		dyn, err := core.Run(core.Config{
			Centers:   optimalCenters(),
			Faults:    scenarios[i].cfg,
			Workloads: []core.Workload{{Game: game, Dataset: ds, Predictor: neural}},
		})
		if err != nil {
			return pair{}, err
		}
		stat, err := core.Run(core.Config{
			Static:    true,
			Centers:   optimalCenters(),
			Faults:    scenarios[i].cfg,
			Workloads: []core.Workload{{Game: game, Dataset: ds}},
		})
		if err != nil {
			return pair{}, err
		}
		return pair{dyn: dyn, stat: stat}, nil
	})
	if err != nil {
		return "", err
	}

	meanAvail := func(r *core.Resilience) float64 {
		if len(r.Availability) == 0 {
			return 1
		}
		var sum float64
		for _, v := range r.Availability {
			sum += v
		}
		return sum / float64(len(r.Availability))
	}

	var b strings.Builder
	b.WriteString("Extension 10 — resilience under stochastic fault injection\n")
	fmt.Fprintf(&b, "(%d ticks; outages drawn per center from exp(MTBF)/exp(MTTR), seed %d)\n\n", ticks, opts.Seed)

	var rows [][]string
	for i, p := range results {
		r := p.dyn.Resilience
		rows = append(rows, []string{
			scenarios[i].name,
			fmt.Sprintf("%d (%d full)", r.Outages, r.FullOutages),
			fmt.Sprintf("%.2f%%", meanAvail(r)*100),
			f2(r.MeanTimeToRecoverTicks),
			fmt.Sprintf("%d", r.Failovers),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Rejections),
			fmt.Sprintf("%d", r.DroppedSamples),
		})
	}
	b.WriteString(table([]string{"faults", "outages", "avail", "svc MTTR [ticks]",
		"failovers", "retries", "rejections", "dropped"}, rows))

	b.WriteString("\nDynamic vs static under the same fault plans:\n\n")
	rows = rows[:0]
	for i, p := range results {
		rows = append(rows, []string{
			scenarios[i].name,
			fmt.Sprintf("%d", p.dyn.Events),
			f3(p.dyn.AvgUnderPct[datacenter.CPU]),
			fmt.Sprintf("%d", p.stat.Events),
			f3(p.stat.AvgUnderPct[datacenter.CPU]),
		})
	}
	b.WriteString(table([]string{"faults", "events (dyn)", "under [%] (dyn)",
		"events (static)", "under [%] (static)"}, rows))
	b.WriteString("\nThe dynamic operator re-leases lost capacity the same tick a center dies,\n")
	b.WriteString("so its disruption grows with the ecosystem-wide capacity actually missing;\n")
	b.WriteString("the static fleet loses its home center's full share for the whole outage\n")
	b.WriteString("and its events climb steeply with the fault rate — the resilience argument\n")
	b.WriteString("for renting from many hosters instead of owning one room of machines.\n")
	return b.String(), nil
}

// Ext09Horizon evaluates multi-step-ahead forecasts. The paper
// predicts one two-minute step, but the hosting policies' time bulks
// reserve resources for hours — a lease is really sized by where the
// load is heading, not by the next sample. The experiment scores the
// predictors at horizons of 2, 10, 30, and 60 minutes on the
// population trace (recursive forecasting for the window-based
// methods).
func Ext09Horizon(o Options) (string, error) {
	opts := o.withDefaults()
	if !opts.Quick && opts.Days > 4 {
		opts.Days = 4
	}
	ds := provisioningTrace(opts)
	neural := neuralFactory(opts)

	horizons := []int{1, 5, 15, 30}
	entries := []struct {
		name string
		f    predict.Factory
	}{
		{"Neural (pretrained)", neural},
		{"Last value", predict.NewLastValue()},
		{"Holt (trend)", predict.NewHolt(0.5, 0.1)},
		{"Exp. smoothing 50%", predict.NewExpSmoothing(0.5, "Exp. smoothing 50%")},
	}

	// Score a sample of groups (full per-zone multi-horizon
	// evaluation is O(zones * n * h)).
	groups := ds.Groups
	if len(groups) > 20 {
		groups = groups[:20]
	}

	var b strings.Builder
	b.WriteString("Extension 9 — forecast error [%] by horizon (recursive multi-step)\n\n")
	header := []string{"predictor"}
	for _, h := range horizons {
		header = append(header, fmt.Sprintf("h=%d (%dmin)", h, h*2))
	}
	rows, err := parallelMap(len(entries), func(i int) ([]string, error) {
		row := []string{entries[i].name}
		for _, h := range horizons {
			var errSum float64
			for _, g := range groups {
				errSum += predict.EvaluateHorizon(entries[i].f, g.Load.Values, h)
			}
			row = append(row, f2(errSum/float64(len(groups))))
		}
		return row, nil
	})
	if err != nil {
		return "", err
	}
	b.WriteString(table(header, rows))
	b.WriteString("\nErrors grow with the horizon for every method; the learned predictor keeps\n")
	b.WriteString("a clear edge at every horizon, because it extrapolates both the round\n")
	b.WriteString("cycle (short horizons) and the diurnal slope (long horizons) where the\n")
	b.WriteString("fixed methods capture at most one of the two.\n")
	return b.String(), nil
}
