package operator

import (
	"fmt"
	"math"
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
	"mmogdc/internal/xrand"
)

// This file implements the crash-injection harness: it runs the same
// deterministic monitored-load scenario twice — once uninterrupted,
// once with the operator process killed at injected points and
// restarted from its latest on-disk checkpoint — and reports both
// trajectories so tests can assert crash equivalence.
//
// The recovery model is restore-and-replay: the restarted operator
// loads the newest valid checkpoint (tick S), reconciles its lease
// book against the live ecosystem (adopting survivors, tombstoning
// casualties, releasing orphans the dead operator acquired after S),
// and re-feeds the monitoring history S+1..T from the replayable
// monitoring source before resuming live at T+1. Forecasts are a pure
// function of the observation history, so they match the uninterrupted
// run bit-for-bit regardless of where the crash fell; allocations
// match bit-for-bit when the replay window contains no natural lease
// expiries or outages, and otherwise re-converge within one lease time
// bulk.

// CrashPoint injects one operator crash.
type CrashPoint struct {
	// Tick is the wall tick the crash lands on.
	Tick int
	// MidTick crashes after the tick's Observe mutated the ecosystem
	// (leases acquired) but before the cadence checkpoint was written —
	// the hardest point: the durable state is behind the ecosystem.
	// Otherwise the crash hits the tick boundary, before Observe.
	MidTick bool
}

// HarnessOutage takes a named center down for [Start, End) wall ticks.
type HarnessOutage struct {
	Center     string
	Start, End int
}

// HarnessConfig parameterizes one crash-equivalence scenario. The zero
// value is completed by sensible defaults; only CheckpointDir is
// required.
type HarnessConfig struct {
	// Seed drives the synthetic monitored load (a pure function of
	// seed, zone, and tick — replayable by construction).
	Seed uint64
	// Zones, Ticks, Machines size the scenario. Defaults: 4 zones, 120
	// ticks, 30 machines per center (two centers).
	Zones, Ticks, Machines int
	// CheckpointEvery is the cadence in ticks; defaults to 1.
	CheckpointEvery int
	// CheckpointDir is where the crashy run persists its snapshots.
	CheckpointDir string
	// Crashes lists explicit crash points. When nil and
	// CrashMTBFTicks > 0, a randomized schedule is drawn from the seed
	// (exponential inter-arrival, MidTickShare of the crashes landing
	// mid-tick).
	Crashes        []CrashPoint
	CrashMTBFTicks float64
	MidTickShare   float64
	// Outages fail whole centers for wall-tick windows. A region
	// blackout is expressed as overlapping windows covering every
	// center of one domain.
	Outages []HarnessOutage
	// MultiRegion spreads the centers across two failure domains —
	// alpha and beta in Europe, gamma and delta on the US east coast —
	// so region-blackout scenarios have a surviving domain to fail over
	// to. Off, the harness keeps its classic two London centers.
	MultiRegion bool
	// DropoutProb injects NaN monitoring samples (also a pure function
	// of seed/zone/tick, so both runs see the same dropouts).
	DropoutProb float64
	// Predictor defaults to an AR model — deliberately one with rich
	// internal state (history ring, refit counters, fitted
	// coefficients) so the equivalence assertion actually bites.
	Predictor predict.Factory
	// PreRestore, when set, runs right before each crash recovery
	// loads its checkpoint — the hook corruption tests use to damage
	// the newest snapshot and force the fallback path.
	PreRestore func(atTick int)
}

func (h HarnessConfig) withDefaults() HarnessConfig {
	if h.Zones == 0 {
		h.Zones = 4
	}
	if h.Ticks == 0 {
		h.Ticks = 120
	}
	if h.Machines == 0 {
		h.Machines = 30
	}
	if h.CheckpointEvery == 0 {
		h.CheckpointEvery = 1
	}
	if h.Predictor == nil {
		h.Predictor = predict.NewAR(4, 8, 64)
	}
	return h
}

// harnessT0 anchors the harness clock, which advances by the
// operator's two-minute tick.
var harnessT0 = time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)

func (h HarnessConfig) timeAt(tick int) time.Time {
	return harnessT0.Add(time.Duration(tick) * defaultTick)
}

// hash01 maps (seed, zone, tick) to [0,1) with a SplitMix64 finisher —
// stateless, so replayed ticks reproduce their samples exactly.
func hash01(seed uint64, zone, tick int) float64 {
	x := xrand.Mix64(seed ^ uint64(zone)*0x9e3779b97f4a7c15 ^ uint64(tick)*0xbf58476d1ce4e5b9)
	return float64(x>>11) / (1 << 53)
}

// loadsAt synthesizes the monitored per-zone load of one tick:
// per-zone base level, diurnal-ish seasonality, bounded noise, and
// optional NaN dropouts.
func (h HarnessConfig) loadsAt(tick int) []float64 {
	out := make([]float64, h.Zones)
	for z := range out {
		base := 300 + 40*float64(z)
		season := 120 * math.Sin(2*math.Pi*float64(tick)/45+float64(z))
		noise := (hash01(h.Seed, z, tick) - 0.5) * 60
		v := base + season + noise
		if v < 0 {
			v = 0
		}
		if h.DropoutProb > 0 && hash01(h.Seed^0xd20990a7, z, tick) < h.DropoutProb {
			v = math.NaN()
		}
		out[z] = v
	}
	return out
}

// buildMatcher constructs the harness ecosystem: equivalent
// fine-grained centers, so failovers have somewhere to go — two London
// centers by default, or two-per-domain with MultiRegion.
func (h HarnessConfig) buildMatcher() *ecosystem.Matcher {
	var b datacenter.Vector
	b[datacenter.CPU] = 0.05
	p := datacenter.HostingPolicy{Name: "fine", Bulk: b, TimeBulk: time.Hour}
	if h.MultiRegion {
		return ecosystem.NewMatcher([]*datacenter.Center{
			datacenter.NewCenter("alpha", geo.London, h.Machines, p),
			datacenter.NewCenter("beta", geo.Amsterdam, h.Machines, p),
			datacenter.NewCenter("gamma", geo.NewYork, h.Machines, p),
			datacenter.NewCenter("delta", geo.Ashburn, h.Machines, p),
		})
	}
	return ecosystem.NewMatcher([]*datacenter.Center{
		datacenter.NewCenter("alpha", geo.London, h.Machines, p),
		datacenter.NewCenter("beta", geo.London, h.Machines, p),
	})
}

func (h HarnessConfig) operatorConfig(m *ecosystem.Matcher) Config {
	return Config{
		Game:      mmog.NewGame("harness", mmog.GenreMMORPG),
		Origin:    geo.London,
		Predictor: h.Predictor,
		Matcher:   m,
	}
}

// TickRecord is the externally observable outcome of one wall tick.
type TickRecord struct {
	// Forecast is the operator's per-zone forecast after the tick.
	Forecast []float64
	// AllocatedCPU is the total CPU reserved across the ecosystem
	// after the tick — the ground truth a player would feel.
	AllocatedCPU float64
}

// liveCPU sums the CPU of every live lease across the ecosystem, in
// lease-book order (summing the books rather than the centers'
// running accumulators keeps the comparison bit-exact: an
// orphan-release/re-lease cycle leaves harmless rounding residue in
// the accumulator but reconstructs the identical lease book).
func liveCPU(m *ecosystem.Matcher) float64 {
	var sum float64
	for _, c := range m.Centers() {
		for _, l := range c.Leases() {
			sum += l.Alloc[datacenter.CPU]
		}
	}
	return sum
}

// RestoreEvent reports one crash recovery in the crashy run.
type RestoreEvent struct {
	// AtTick is the wall tick the crash landed on; MidTick whether it
	// hit after that tick's Observe.
	AtTick  int
	MidTick bool
	// FromTick is the checkpoint the operator restarted from.
	FromTick int
	// Reconciliation is the lease-book match against the ecosystem.
	Reconciliation Reconciliation
	// CorruptSkipped names checkpoint files that failed validation and
	// were skipped on the way to FromTick.
	CorruptSkipped []string
}

// HarnessResult carries both trajectories for equivalence assertions.
type HarnessResult struct {
	Reference, Crashed []TickRecord
	ReferenceMetrics   Metrics
	CrashedMetrics     Metrics
	Restores           []RestoreEvent
}

// RunCrashHarness executes the scenario twice — uninterrupted and with
// injected operator crashes — and returns both trajectories.
func RunCrashHarness(cfg HarnessConfig) (*HarnessResult, error) {
	h := cfg.withDefaults()
	if h.CheckpointDir == "" {
		return nil, fmt.Errorf("operator: harness needs a checkpoint directory")
	}
	crashes := h.Crashes
	if crashes == nil && h.CrashMTBFTicks > 0 {
		// Drawn like faults.NewPlan's outage schedules: from the plan's
		// root stream, split under a label the plan does not use.
		gap := xrand.New(h.Seed ^ 0x6fa17a1c5eed5a1d).Split(0xc4a54)
		mid := xrand.New(h.Seed ^ 0x3a9c)
		for t := 0; ; {
			t += 1 + int(min(gap.Exp(h.CrashMTBFTicks), float64(h.Ticks)))
			if t >= h.Ticks-1 {
				break
			}
			crashes = append(crashes, CrashPoint{Tick: t, MidTick: mid.Bool(h.MidTickShare)})
		}
	}
	crashAt := make(map[int]CrashPoint, len(crashes))
	for _, c := range crashes {
		if c.Tick <= 0 || c.Tick >= h.Ticks {
			return nil, fmt.Errorf("operator: crash tick %d outside (0, %d)", c.Tick, h.Ticks)
		}
		crashAt[c.Tick] = c
	}

	res := &HarnessResult{}

	// Reference run: no crashes, same loads, same outages.
	refMatcher := h.buildMatcher()
	refOp, err := New(h.operatorConfig(refMatcher))
	if err != nil {
		return nil, err
	}
	res.Reference, err = h.runStretch(refOp, refMatcher, 0, h.Ticks)
	if err != nil {
		return nil, err
	}
	res.ReferenceMetrics = refOp.Metrics()

	// Crashy run.
	mgr, err := checkpoint.NewManager(h.CheckpointDir)
	if err != nil {
		return nil, err
	}
	matcher := h.buildMatcher()
	opCfg := h.operatorConfig(matcher)
	op, err := New(opCfg)
	if err != nil {
		return nil, err
	}
	res.Crashed = make([]TickRecord, h.Ticks)
	record := func(t int) {
		res.Crashed[t] = TickRecord{
			Forecast:     append([]float64(nil), op.Forecast()...),
			AllocatedCPU: liveCPU(matcher),
		}
	}
	save := func(t int) error {
		if t%h.CheckpointEvery != 0 {
			return nil
		}
		payload, err := op.Snapshot()
		if err != nil {
			return err
		}
		return mgr.Save(t, payload)
	}
	// restoreAndReplay kills the current operator, restarts it from the
	// newest valid checkpoint, and replays the monitoring history up to
	// and including wall tick upTo.
	restoreAndReplay := func(atTick, upTo int, midTick bool) error {
		if h.PreRestore != nil {
			h.PreRestore(atTick)
		}
		snap, err := mgr.Latest()
		if err != nil {
			return fmt.Errorf("operator: harness restore at tick %d: %w", atTick, err)
		}
		restored, rec, err := FromSnapshot(opCfg, snap.Payload)
		if err != nil {
			return fmt.Errorf("operator: harness restore at tick %d: %w", atTick, err)
		}
		op = restored
		res.Restores = append(res.Restores, RestoreEvent{
			AtTick: atTick, MidTick: midTick, FromTick: snap.Tick,
			Reconciliation: *rec, CorruptSkipped: snap.Corrupt,
		})
		for k := snap.Tick + 1; k <= upTo; k++ {
			if err := op.Observe(h.timeAt(k), h.loadsAt(k)); err != nil {
				return err
			}
			record(k)
		}
		return nil
	}
	for t := 0; t < h.Ticks; t++ {
		h.applyOutages(matcher, t)
		cp, crashing := crashAt[t]
		if crashing && !cp.MidTick {
			// Boundary crash: the process dies before observing tick t.
			if err := restoreAndReplay(t, t-1, false); err != nil {
				return nil, err
			}
		}
		if err := op.Observe(h.timeAt(t), h.loadsAt(t)); err != nil {
			return nil, err
		}
		record(t)
		if crashing && cp.MidTick {
			// Mid-tick crash: tick t's leases are in the ecosystem but
			// the checkpoint for t was never written.
			if err := restoreAndReplay(t, t, true); err != nil {
				return nil, err
			}
		}
		if err := save(t); err != nil {
			return nil, err
		}
	}
	res.CrashedMetrics = op.Metrics()
	return res, nil
}

// runStretch drives one operator over wall ticks [from, to) and
// records each tick.
func (h HarnessConfig) runStretch(op *Operator, m *ecosystem.Matcher, from, to int) ([]TickRecord, error) {
	recs := make([]TickRecord, to-from)
	for t := from; t < to; t++ {
		h.applyOutages(m, t)
		if err := op.Observe(h.timeAt(t), h.loadsAt(t)); err != nil {
			return nil, err
		}
		recs[t-from] = TickRecord{
			Forecast:     append([]float64(nil), op.Forecast()...),
			AllocatedCPU: liveCPU(m),
		}
	}
	return recs, nil
}

// applyOutages fires the Fail/Recover transitions landing on wall
// tick t.
func (h HarnessConfig) applyOutages(m *ecosystem.Matcher, t int) {
	for _, o := range h.Outages {
		c := m.CenterByName(o.Center)
		if c == nil {
			continue
		}
		if o.Start == t {
			c.Fail()
		}
		if o.End == t {
			c.Recover()
		}
	}
}
