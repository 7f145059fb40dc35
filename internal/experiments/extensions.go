package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"mmogdc/internal/core"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
	"mmogdc/internal/series"
)

// Extensions returns the experiments that go beyond the paper's
// evaluation: the future-work features Section VII announces and
// ablations of this reproduction's design choices.
func Extensions() []Spec {
	return []Spec{
		{ID: "ext01", Artifact: "Future work (Sec. V-F)",
			Title: "Prioritizing requests by MMOG interaction type under contention", Run: Ext01Priority},
		{ID: "ext02", Artifact: "Motivation (Sec. I)",
			Title: "Operating cost: static infrastructure vs dynamic rental", Run: Ext02Cost},
		{ID: "ext03", Artifact: "Predictor families (Sec. IV-A)",
			Title: "AR and seasonal predictors vs the paper's seven", Run: Ext03Predictors},
		{ID: "ext04", Artifact: "Service models (Sec. II-B)",
			Title: "Advance reservations vs purely reactive leasing", Run: Ext04Reservations},
		{ID: "ext05", Artifact: "Update models (Sec. II-A)",
			Title: "Empirical interaction-scaling exponents per profile mix", Run: Ext05Interaction},
		{ID: "ext06", Artifact: "Resource units (Sec. V-A)",
			Title: "Calibrating the ExtNet[out] unit from packet-level sessions", Run: Ext06Bandwidth},
		{ID: "ext07", Artifact: "Safety margin (Sec. V-C)",
			Title: "Sweeping the over-prediction margin against residual events", Run: Ext07Margin},
		{ID: "ext08", Artifact: "Resilience",
			Title: "Data-center outage injection and recovery", Run: Ext08Failure},
		{ID: "ext09", Artifact: "Forecast horizon",
			Title: "Multi-step-ahead forecast accuracy by predictor", Run: Ext09Horizon},
		{ID: "ext10", Artifact: "Resilience",
			Title: "Stochastic fault injection: dynamic vs static degradation", Run: Ext10Resilience},
		{ID: "ext11", Artifact: "Resilience",
			Title: "Correlated failure-domain scenario corpus with audit attribution", Run: Ext11Chaos},
	}
}

// Ext01Priority implements the paper's announced future work: "the
// impact of prioritizing the resource requests according to the
// interaction type of the MMOG". Three games (the Table VII types)
// share an ecosystem deliberately scaled down so capacity is
// contended; with prioritization, the compute-intensive games request
// first.
func Ext01Priority(o Options) (string, error) {
	opts := o.withDefaults()
	if !opts.Quick && opts.Days > 7 {
		opts.Days = 7
	}
	full := provisioningTrace(opts)
	neural := neuralFactory(opts)

	games := []*mmog.Game{
		{Name: "MMOG A", Update: mmog.UpdateNLogN, LatencyKm: math.Inf(1), Profile: mmog.DefaultProfile},
		{Name: "MMOG B", Update: mmog.UpdateQuadratic, LatencyKm: math.Inf(1), Profile: mmog.DefaultProfile},
		{Name: "MMOG C", Update: mmog.UpdateQuadraticLog, LatencyKm: math.Inf(1), Profile: mmog.DefaultProfile},
	}

	// A deliberately tight ecosystem: one-third of the Table III
	// machines, so the three operators contend for capacity.
	tightCenters := func() []*datacenter.Center {
		sites := datacenter.TableIIISites()
		for i := range sites {
			sites[i].Machines = (sites[i].Machines + 2) / 3
		}
		return datacenter.BuildCenters(sites, []datacenter.HostingPolicy{datacenter.OptimalPolicy()})
	}

	run := func(prioritize bool) (*core.Result, error) {
		workloads, err := splitWorkloads(full, games, [3]int{33, 33, 33}, neural)
		if err != nil {
			return nil, err
		}
		return core.Run(core.Config{
			Centers:                 tightCenters(),
			Workloads:               workloads,
			PrioritizeByInteraction: prioritize,
		})
	}

	base, err := run(false)
	if err != nil {
		return "", err
	}
	prio, err := run(true)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	b.WriteString("Extension 1 — interaction-type request prioritization under contention\n")
	b.WriteString("(three equal games on a 1/3-capacity ecosystem)\n\n")
	var rows [][]string
	for _, g := range games {
		rows = append(rows, []string{g.Name, g.Update.String(),
			f3(base.AvgUnderByGame[g.Name]), f3(prio.AvgUnderByGame[g.Name])})
	}
	b.WriteString(table([]string{"game", "interaction",
		"under [%] (fifo)", "under [%] (prioritized)"}, rows))
	fmt.Fprintf(&b, "\nEcosystem events: fifo %d, prioritized %d; unmet ticks: fifo %d, prioritized %d\n",
		base.Events, prio.Events, base.Unmet, prio.Unmet)
	b.WriteString("Prioritization shifts scarcity away from the games where a shortfall is\n")
	b.WriteString("steepest (the super-linear update models) onto the lighter titles.\n")
	return b.String(), nil
}

// Ext02Cost quantifies the paper's economic motivation: what the same
// two weeks of operation cost under static self-owned infrastructure
// vs dynamic rental, for each prediction algorithm. Rental is billed
// per lease at the centers' price tables; the static fleet is billed
// as owned machines around the clock at the same CPU rate.
func Ext02Cost(o Options) (string, error) {
	opts := o.withDefaults()
	ds := provisioningTrace(opts)
	game := standardGame()
	neural := neuralFactory(opts)

	duration := time.Duration(ds.Samples()) * series.DefaultTick

	var b strings.Builder
	b.WriteString("Extension 2 — operating cost, static infrastructure vs dynamic rental\n")
	b.WriteString("(arbitrary currency; CPU 1.00/unit-hour, Mem 0.10, In 0.02, Out 0.15)\n\n")

	// Static fleet: one machine per server group (the group's peak
	// fits one machine), owned 24/7.
	staticMachines := float64(len(ds.Groups))
	staticAlloc := datacenter.PerMachineCapacity.Scale(staticMachines)
	staticCost := datacenter.DefaultPrices.AllocationCost(staticAlloc, duration)
	fmt.Fprintf(&b, "static fleet: %d machines around the clock -> cost %.0f\n\n", len(ds.Groups), staticCost)

	var rows [][]string
	for _, p := range tab5Predictors(neural) {
		centers := hp12Centers()
		res, err := core.Run(core.Config{
			Centers:   centers,
			Workloads: []core.Workload{{Game: game, Dataset: ds, Predictor: p.F}},
		})
		if err != nil {
			return "", err
		}
		cost := datacenter.TotalCostOf(centers)
		rows = append(rows, []string{p.Name, fmt.Sprintf("%.0f", cost),
			fmt.Sprintf("%.1f%%", cost/staticCost*100),
			fmt.Sprintf("%d", res.Events)})
	}
	b.WriteString(table([]string{"predictor", "rental cost", "of static cost", "events"}, rows))
	b.WriteString("\nDynamic rental costs a fraction of the dedicated fleet even under the\n")
	b.WriteString("mis-fitted HP-1/HP-2 policies — the economic version of Fig. 8.\n")
	return b.String(), nil
}

// Ext03Predictors evaluates the predictor families the paper discusses
// but does not implement — an autoregressive AR(p) model refit by
// Yule-Walker, and a seasonal-naive (diurnal template) predictor — on
// the population trace, next to the paper's seven. It also times them,
// quantifying Section IV-A's claim that the elaborated methods are
// "more time consuming and resource intensive".
func Ext03Predictors(o Options) (string, error) {
	opts := o.withDefaults()
	ds := provisioningTrace(opts)
	zones := make([][]float64, len(ds.Groups))
	for i, g := range ds.Groups {
		zones[i] = g.Load.Values
	}
	neural := neuralFactory(opts)

	entries := []struct {
		name string
		f    predict.Factory
	}{
		{"Neural (pretrained)", neural},
		{"AR(6), refit hourly", predict.NewAR(6, 30, 4*series.DefaultTicksPerDay)},
		{"Holt (trend-corrected)", predict.NewHolt(0.5, 0.1)},
		{"Seasonal naive (24h)", predict.NewSeasonalNaive(series.DefaultTicksPerDay)},
		{"Last value", predict.NewLastValue()},
		{"Exp. smoothing 50%", predict.NewExpSmoothing(0.5, "Exp. smoothing 50%")},
	}

	var b strings.Builder
	b.WriteString("Extension 3 — predictor families beyond the paper's seven\n\n")
	var rows [][]string
	for _, e := range entries {
		errPct := predict.EvaluateZonesFromSecond(e.f, zones)
		// Time the full per-sample path (Observe + Predict): the AR
		// model's cost lives in its periodic refits, not in the
		// forecast itself.
		timing, err := timeFullPrediction(e.f, zones[0])
		if err != nil {
			return "", err
		}
		rows = append(rows, []string{e.name, f2(errPct), f3(timing.Median), f3(timing.Max)})
	}
	b.WriteString(table([]string{"predictor", "error [%]", "step median [µs]", "step max [µs]"}, rows))
	b.WriteString("\nMeasured trade-offs: the AR model concentrates its cost in periodic\n")
	b.WriteString("Yule-Walker refits (visible in the max column) and is competitive in\n")
	b.WriteString("accuracy on this trace — on 2026 hardware the paper's 2008 cost objection\n")
	b.WriteString("no longer bites, though the fixed linear structure cannot express the\n")
	b.WriteString("nonlinear conditioning the network learns. The seasonal template is cheap\n")
	b.WriteString("and strong on the pure diurnal cycle but blind to round-level dynamics\n")
	b.WriteString("and population events — the adaptivity argument of Section IV-A.\n")
	return b.String(), nil
}
