package core

import (
	"testing"

	"mmogdc/internal/faults"
	"mmogdc/internal/predict"
)

// compareResilience extends the parallel-equivalence contract to the
// resilience accounting: every counter and per-center availability must
// be bit-identical across worker counts.
func compareResilience(t *testing.T, a, b *Resilience) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("resilience missing: %v / %v", a, b)
	}
	if a.Outages != b.Outages || a.FullOutages != b.FullOutages || a.PartialOutages != b.PartialOutages {
		t.Fatalf("outage counts differ: %d/%d full %d/%d partial %d/%d",
			a.Outages, b.Outages, a.FullOutages, b.FullOutages, a.PartialOutages, b.PartialOutages)
	}
	if a.CapacityRecovered != b.CapacityRecovered || a.ServiceRecovered != b.ServiceRecovered {
		t.Fatalf("recovery counts differ: capacity %d/%d service %d/%d",
			a.CapacityRecovered, b.CapacityRecovered, a.ServiceRecovered, b.ServiceRecovered)
	}
	if !bitsEqual(a.MeanTimeToRecoverTicks, b.MeanTimeToRecoverTicks) {
		t.Fatalf("MTTR differs: %v != %v", a.MeanTimeToRecoverTicks, b.MeanTimeToRecoverTicks)
	}
	if a.Failovers != b.Failovers || a.FailoverLeases != b.FailoverLeases || a.Retries != b.Retries {
		t.Fatalf("failover/retry counts differ: %d/%d leases %d/%d retries %d/%d",
			a.Failovers, b.Failovers, a.FailoverLeases, b.FailoverLeases, a.Retries, b.Retries)
	}
	if a.Rejections != b.Rejections || a.PartialGrants != b.PartialGrants || a.DroppedSamples != b.DroppedSamples {
		t.Fatalf("injection counts differ: rejections %d/%d partials %d/%d dropped %d/%d",
			a.Rejections, b.Rejections, a.PartialGrants, b.PartialGrants, a.DroppedSamples, b.DroppedSamples)
	}
	if !bitsEqual(a.CapacityLostCPUTicks, b.CapacityLostCPUTicks) {
		t.Fatalf("CapacityLostCPUTicks differs: %v != %v", a.CapacityLostCPUTicks, b.CapacityLostCPUTicks)
	}
	if a.RegionBlackouts != b.RegionBlackouts || a.FailoversDeferred != b.FailoversDeferred ||
		a.BrownoutTicks != b.BrownoutTicks || a.ShedLeases != b.ShedLeases ||
		a.TimeToFullRecoveryTicks != b.TimeToFullRecoveryTicks {
		t.Fatalf("chaos counters differ: blackouts %d/%d deferred %d/%d brownout %d/%d shed %d/%d ttfr %d/%d",
			a.RegionBlackouts, b.RegionBlackouts, a.FailoversDeferred, b.FailoversDeferred,
			a.BrownoutTicks, b.BrownoutTicks, a.ShedLeases, b.ShedLeases,
			a.TimeToFullRecoveryTicks, b.TimeToFullRecoveryTicks)
	}
	if !bitsEqual(a.ShedPlayerTicks, b.ShedPlayerTicks) {
		t.Fatalf("ShedPlayerTicks differs: %v != %v", a.ShedPlayerTicks, b.ShedPlayerTicks)
	}
	if len(a.Availability) != len(b.Availability) {
		t.Fatalf("Availability size %d != %d", len(a.Availability), len(b.Availability))
	}
	for name, v := range a.Availability {
		if w, ok := b.Availability[name]; !ok || !bitsEqual(v, w) {
			t.Fatalf("Availability[%q]: %v != %v", name, v, w)
		}
	}
}

// chaosFaults is a fault mix that exercises every injection channel on
// the equivalence trace: outages (full and partial), grant rejections,
// partial grants, and monitoring dropouts.
func chaosFaults(seed uint64) *faults.Config {
	return &faults.Config{
		Seed:             seed,
		MTBFTicks:        120,
		MTTRTicks:        25,
		DegradedShare:    0.5,
		RejectProb:       0.05,
		PartialGrantProb: 0.05,
		DropoutProb:      0.03,
	}
}

// TestFaultPlanDeterministicAcrossWorkers is the determinism contract
// of the fault injector: a stochastic-fault run must be bit-identical
// for any worker count, including every resilience counter.
func TestFaultPlanDeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int) *Result {
		cfg := equivalenceConfig(workers)
		cfg.Faults = chaosFaults(11)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par, auto := mk(1), mk(8), mk(0)
	compareResults(t, seq, par)
	compareResults(t, seq, auto)
	compareResilience(t, seq.Resilience, par.Resilience)
	compareResilience(t, seq.Resilience, auto.Resilience)
	// The chaos mix must actually inject: a vacuous pass proves nothing.
	r := seq.Resilience
	if r.Outages == 0 || r.Rejections == 0 || r.DroppedSamples == 0 {
		t.Fatalf("chaos run injected nothing: %+v", r)
	}
}

// TestOverlappingFailureWindowsCompose is the regression test for the
// refcounted fail/recover state. Two scheduled windows on one center,
// [10, 40) and [20, 30): before refcounting, the inner window's
// recovery at tick 30 revived the center while the outer window still
// had ten ticks to run.
func TestOverlappingFailureWindowsCompose(t *testing.T) {
	ds := syntheticDataset(4, 200, 1200)
	res, err := Run(Config{
		Centers: fineCenters(20),
		Faults: &faults.Config{ScheduledOutages: []faults.CenterOutage{
			{Center: "dc", Start: 10, Duration: 30},
			{Center: "dc", Start: 20, Duration: 10},
		}},
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tick t scores at UnderPct[t-1]. Between the inner recovery (30)
	// and the outer one (40) the only center must still be dark.
	for tick := 31; tick < 40; tick++ {
		if u := res.UnderPct[tick-1]; u > -10 {
			t.Fatalf("tick %d: under-allocation %v — inner recovery revived a center the outer window still holds", tick, u)
		}
	}
	// After the outer recovery the operator re-acquires within a tick.
	if u := res.UnderPct[41]; u < -1 {
		t.Fatalf("post-recovery under-allocation %v, want healed", u)
	}
	// The merged window is one outage, fully recovered.
	r := res.Resilience
	if r.Outages != 1 || r.FullOutages != 1 || r.CapacityRecovered != 1 {
		t.Fatalf("overlapping windows should merge into one recovered full outage, got %+v", r)
	}
}

// TestFaultInjectionInvariants drives the full chaos mix across seeds
// and checks structural invariants of the resilience accounting and of
// the capacity model under degradation.
func TestFaultInjectionInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ds := syntheticDataset(6, 400, 1400)
		centers := fineCenters(25)
		cfg := Config{
			Centers: centers,
			Faults: &faults.Config{
				Seed:             seed,
				MTBFTicks:        80,
				MTTRTicks:        20,
				DegradedShare:    0.5,
				RejectProb:       0.05,
				PartialGrantProb: 0.05,
				DropoutProb:      0.1,
			},
			Workloads: []Workload{{
				Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
			}},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := res.Resilience
		if r == nil {
			t.Fatal("resilience missing")
		}
		// Every plan-generated outage ends inside the run, so capacity
		// always comes back.
		if r.CapacityRecovered != r.Outages {
			t.Fatalf("seed %d: %d outages but %d recovered — an injected outage outlived the run", seed, r.Outages, r.CapacityRecovered)
		}
		if r.FullOutages+r.PartialOutages != r.Outages {
			t.Fatalf("seed %d: outage classification %d+%d != %d", seed, r.FullOutages, r.PartialOutages, r.Outages)
		}
		for name, av := range r.Availability {
			if av < 0 || av > 1+1e-9 {
				t.Fatalf("seed %d: availability[%s] = %v outside [0,1]", seed, name, av)
			}
		}
		if r.CapacityLostCPUTicks < 0 {
			t.Fatalf("seed %d: negative capacity lost %v", seed, r.CapacityLostCPUTicks)
		}
		if r.Outages > 0 && r.CapacityLostCPUTicks <= 0 {
			t.Fatalf("seed %d: %d outages but no capacity lost", seed, r.Outages)
		}
		if r.DroppedSamples == 0 {
			t.Fatalf("seed %d: 10%% dropout rate produced no dropped samples over %d ticks", seed, res.Ticks)
		}
		if r.MeanTimeToRecoverTicks < 0 {
			t.Fatalf("seed %d: negative MTTR %v", seed, r.MeanTimeToRecoverTicks)
		}
		// Degradation must never leave a center over-committed.
		for _, c := range centers {
			if !c.Allocated().FitsWithin(c.Capacity()) {
				t.Fatalf("seed %d: center %s over-committed after faulted run", seed, c.Name)
			}
			if c.Offline() {
				t.Fatalf("seed %d: center %s still offline after the run", seed, c.Name)
			}
		}
	}
}

// TestFaultConfigValidatedByRun ensures a bad injector config is a
// configuration error, not a silent no-op.
func TestFaultConfigValidatedByRun(t *testing.T) {
	ds := syntheticDataset(2, 50, 900)
	_, err := Run(Config{
		Centers: fineCenters(10),
		Faults:  &faults.Config{Seed: 1, RejectProb: 1.5},
		Workloads: []Workload{{
			Game: testGame(), Dataset: ds, Predictor: predict.NewLastValue(),
		}},
	})
	if err == nil {
		t.Fatal("invalid fault config accepted")
	}
}
