// Package core implements the paper's trace-driven resource
// provisioning simulation (Section V). Every two simulated minutes the
// game operator predicts the load of each server group (the number of
// players, converted into a resource demand through the game's
// interaction/update model), requests the missing resources from the
// data-center ecosystem, and lets unneeded leases lapse when their
// time bulk expires. The simulator measures the three metrics of the
// paper:
//
//   - resource over-allocation Ω(t) (Equation 1): the cumulated
//     allocation over the cumulated load, reported here as the
//     percentage allocated *beyond* the load (Ω−100%);
//   - resource under-allocation Υ(t) (Equation 2): the average
//     per-server shortfall, where over-allocation on one server cannot
//     compensate a shortfall on another;
//   - significant under-allocation events: ticks where |Υ| > 1%,
//     i.e. moments when the game play is disrupted.
//
// The static alternative provisions each server group for its peak
// demand up front and never adjusts.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mmogdc/internal/checkpoint"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/faults"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/par"
	"mmogdc/internal/predict"
	"mmogdc/internal/provision"
	"mmogdc/internal/trace"
)

// SignificantUnderPct is the |Υ| threshold (in percent) above which an
// under-allocation is disruptive (Section V).
const SignificantUnderPct = 1.0

// Workload is one MMOG operated on the ecosystem: a game design (the
// update model and latency tolerance), the population trace of its
// server groups, and the predictor driving its requests.
type Workload struct {
	// Game fixes the update model, resource profile, and latency
	// tolerance.
	Game *mmog.Game
	// Dataset provides the per-server-group player counts.
	Dataset *trace.Dataset
	// Predictor builds one predictor per server group (dynamic mode).
	Predictor predict.Factory
}

// Config parameterizes one simulation run.
type Config struct {
	// Workloads are the games sharing the ecosystem.
	Workloads []Workload
	// Centers is the data-center ecosystem (ignored in static mode).
	Centers []*datacenter.Center
	// Static provisions each server group for its trace-wide peak
	// demand instead of predicting and leasing dynamically.
	Static bool
	// SafetyMargin inflates predicted demand by this fraction before
	// requesting (0 = request exactly the prediction).
	SafetyMargin float64
	// TrackCenters enables the per-center accounting used by the
	// latency experiments (Figs. 13 and 14).
	TrackCenters bool
	// PrioritizeByInteraction orders each tick's resource requests by
	// the game's update-model complexity, most compute-intensive
	// first — the extension the paper proposes as future work in
	// Section V-F ("the impact of prioritizing the resource requests
	// according to the interaction type of the MMOG"). Under capacity
	// contention it hands the steepest demand curves first pick, which
	// is where a shortfall hurts the most.
	PrioritizeByInteraction bool
	// Failures injects scheduled data-center outages: each takes the
	// named center offline (dropping all its leases) at a tick and
	// brings it back after a duration. The game operator re-acquires
	// lost capacity the same tick, excluding the failed center from
	// the retry. AtTick must be >= 0 (tick 0 fires before the
	// bootstrap acquire), DurationTicks must be >= 1, and the named
	// center must exist; Run rejects anything else. Overlapping
	// windows for one center compose through refcounting — the center
	// recovers only when its last window closes.
	Failures []Failure
	// Faults configures the seeded stochastic fault injector
	// (internal/faults): MTBF/MTTR center outages (full or partial),
	// lease-grant rejections and partial grants, and monitoring
	// dropouts. Nil injects nothing. The fault plan is pre-generated
	// from Faults.Seed, so the same seed reproduces a bit-identical
	// Result for any Workers setting.
	Faults *faults.Config
	// FailoverBudgetPerTick caps the failover re-acquisitions performed
	// in any one tick (storm control): when a region blackout drops
	// dozens of zones at once, only the first budget zones (in acquire
	// order) fail over immediately; the rest are deferred by a
	// deterministic jittered backoff of 1–4 ticks so the stampede on
	// the surviving centers is spread out. 0 means unlimited — the
	// legacy same-tick failover for every zone.
	FailoverBudgetPerTick int
	// Brownout enables graceful degradation when the surviving
	// effective capacity cannot cover the demand: instead of letting
	// every zone thrash over the shortage, the engine sheds the
	// lowest-priority zones (the tail of the acquire order) — their
	// leases are released and their acquisitions skipped — until the
	// survivors fit the capacity budget. Result.Resilience accounts the
	// brownout ticks and the player-load shed.
	Brownout bool
	// BrownoutReserveFrac is the fraction of each surviving region's
	// effective capacity held back as reserved headroom while brownout
	// mode decides what fits (0 = spend everything surviving). The
	// reserve absorbs prediction error and aftershocks so the kept
	// zones do not immediately breach again.
	BrownoutReserveFrac float64
	// Workers is the parallelism of the per-zone tick phase: 0 sizes
	// the worker pool by GOMAXPROCS, 1 runs fully sequentially on the
	// caller's goroutine. The result is bit-for-bit identical for any
	// worker count — per-zone work is embarrassingly parallel and the
	// reduce and acquire phases stay sequential in deterministic
	// order.
	Workers int
	// CheckpointDir, when non-empty, makes the run crash-safe: the full
	// engine state is written atomically to this directory every
	// CheckpointEveryTicks ticks, and a run started over a directory
	// holding checkpoints resumes from the newest valid one instead of
	// starting fresh. A resumed run's Result is bit-identical to an
	// uninterrupted run with the same Config. Corrupt checkpoint files
	// are skipped (falling back to the previous good one), never
	// silently loaded. Empty disables checkpointing entirely — the run
	// is then bit-identical to one from before this feature existed.
	CheckpointDir string
	// CheckpointEveryTicks is the checkpoint cadence; 0 defaults to 60
	// ticks (two simulated hours at the paper's 2-minute tick).
	CheckpointEveryTicks int
	// StopAfterTick, when > 0, halts the run right after the named
	// tick completed (and, with CheckpointDir set, after force-writing
	// a checkpoint at that tick). Run returns ErrStopped and no Result.
	// This is the deterministic "kill" of crash-recovery drills: run
	// with StopAfterTick, then rerun without it to resume and finish.
	StopAfterTick int
	// Obs, when non-nil, streams the run's telemetry — per-phase tick
	// timing, provisioning counters mirroring Result.Resilience, and
	// flight-recorder events — into the given observability bundle.
	// Obs is strictly write-only with respect to the simulation: a run
	// with Obs set produces a bit-identical Result to one without, and
	// nil costs nothing on the hot path.
	Obs *obs.Obs
	// Provenance, when > 0, installs a decision log of that capacity
	// on the matcher: every acquire records the ordered candidate
	// ranking with per-candidate dispositions, and (with Obs set) each
	// grant/failover gains a companion "decision" flight-recorder
	// event. Write-only like Obs: the Result is bit-identical with
	// provenance on or off, and 0 disables it entirely.
	Provenance int
}

// Failure is one scheduled data-center outage.
type Failure struct {
	// Center is the failing center's name.
	Center string
	// AtTick is the sample index the outage begins at.
	AtTick int
	// DurationTicks is the outage length in samples.
	DurationTicks int
}

// Result collects the metrics of one run.
type Result struct {
	// Ticks is the number of scored samples.
	Ticks int
	// AvgOverPct is the mean over-allocation percentage per resource
	// (Ω−100%), averaged over ticks with non-zero load. A resource
	// that never sees load has no defined over-allocation ratio and
	// reports math.NaN(); formatting layers render it as "n/a".
	AvgOverPct [datacenter.NumResources]float64
	// AvgUnderPct is the mean under-allocation Υ per resource (<= 0).
	AvgUnderPct [datacenter.NumResources]float64
	// Events is the number of ticks with a significant
	// under-allocation (|Υ| > 1%) on any resource.
	Events int
	// CumEvents is the running number of significant events per tick
	// (Figs. 7 and 10).
	CumEvents []int
	// OverPct and UnderPct are the per-tick Ω−100% and Υ series for
	// the CPU resource (Figs. 8 and 9).
	OverPct  []float64
	UnderPct []float64
	// Unmet counts ticks where the ecosystem could not serve the full
	// request (capacity exhausted within the latency bound).
	Unmet int
	// AvgUnderByGame is the mean CPU under-allocation per game,
	// normalized by that game's own machine count — the per-operator
	// view the interaction-prioritization extension is judged by.
	AvgUnderByGame map[string]float64
	// CenterStats maps center name to its accounting (TrackCenters).
	CenterStats map[string]*CenterStats
	// Resilience accounts the run's fault handling (always set; all
	// zeros when nothing was injected).
	Resilience *Resilience
	// ResumedFromTick is the tick of the checkpoint this run resumed
	// from, 0 when the run started fresh.
	ResumedFromTick int
}

// CenterStats accounts one center's CPU usage over a run.
type CenterStats struct {
	// AvgAllocatedCPU is the mean allocated CPU units over the run.
	AvgAllocatedCPU float64
	// AvgFreeCPU is the mean free CPU units.
	AvgFreeCPU float64
	// AllocatedByRegion splits AvgAllocatedCPU by the requesting
	// region's name (Figs. 13/14 need to know whose demand each
	// center served).
	AllocatedByRegion map[string]float64
}

// zoneState tracks one server group during the simulation. The run
// holds all zones in one flat value slice, indexed by idx — the
// per-tick phases walk them by index, so zone state, partials, and
// accumulators all live in contiguous, preallocated memory.
type zoneState struct {
	game      *mmog.Game
	group     *trace.Group
	region    trace.Region
	predictor predict.Predictor
	// step is the zone's provisioning step: its lease book, backoff,
	// and parked failover.
	step provision.Step
	// tag is the zone's request/accounting tag ("game/group"), built
	// once at construction — the tick loop must never format it.
	tag string
	// idx is the zone's position in the canonical zone order — the
	// index of its slot in the per-tick partials.
	idx int
	// gameIdx indexes the run's game list for the flat per-game
	// accumulators.
	gameIdx int
	// static allocation (static mode only).
	staticAlloc datacenter.Vector
	// home is the center hosting the zone's static fleet (static mode
	// with centers configured); its outages darken the allocation.
	home *datacenter.Center
	// lastObs carries the last monitoring sample that actually
	// arrived; dropouts feed it to the predictor instead (LOCF).
	lastObs float64
}

// zonePartial is one zone's contribution to a tick, produced by the
// parallel per-zone phase and folded in by the sequential reduce. All
// fields are pure functions of zone-local state, so their values do
// not depend on the worker count or execution order.
type zonePartial struct {
	// alloc is the allocation in force at the scoring instant.
	alloc datacenter.Vector
	// load is the actual resource demand at the scoring instant.
	load datacenter.Vector
	// need is the gap to request from the ecosystem for the next tick
	// (zero in static mode and on the final tick).
	need datacenter.Vector
	// dropped flags a monitoring dropout at this tick (the sample was
	// carried forward).
	dropped bool
}

// workerArena is one pool worker's private scratch for the parallel
// per-zone phase, padded so no two workers share a cache line. It only
// carries quantities whose combination is order-independent (integer
// counts); every float fold stays in the sequential reduce, which is
// what keeps Result bit-identical across worker counts.
type workerArena struct {
	// dropped counts the monitoring dropouts this worker observed in
	// the current tick.
	dropped int64
	_       [56]byte // pad to a 64-byte cache line
}

// sanitizePrediction guards the simulation against misbehaving
// predictors: negative, NaN, or infinite forecasts are treated as
// zero demand (the operator requests nothing rather than poisoning
// the allocation accounting).
func sanitizePrediction(v float64) float64 {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// demandVector converts a player count into the datacenter resource
// vector via the game's update model and resource profile.
func demandVector(g *mmog.Game, players float64) datacenter.Vector {
	d := g.DemandForEntities(players)
	var v datacenter.Vector
	v[datacenter.CPU] = d.CPU
	v[datacenter.Memory] = d.Memory
	v[datacenter.ExtNetIn] = d.ExtNetIn
	v[datacenter.ExtNetOut] = d.ExtNetOut
	return v
}

// Run executes the simulation and returns its metrics.
func Run(cfg Config) (*Result, error) { return run(cfg, nil) }

// run is Run with an optional decision log installed on the run's
// matcher in place of the Provenance-sized one, so a test can read the
// whole decision stream back.
func run(cfg Config, decisions *ecosystem.DecisionLog) (*Result, error) {
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("core: no workloads")
	}
	// zones is the flat zone-state arena: one value slice in canonical
	// order, sized up front and never reallocated after this setup loop
	// (pointers into it are only taken afterwards). gameNames lists the
	// distinct games in workload order; the per-game accumulators are
	// flat slices indexed by zoneState.gameIdx.
	nzones := 0
	for _, w := range cfg.Workloads {
		if w.Dataset != nil {
			nzones += len(w.Dataset.Groups)
		}
	}
	zones := make([]zoneState, 0, nzones)
	var gameNameList []string
	samples := 0
	gameNames := map[string]bool{}
	for gi, w := range cfg.Workloads {
		if w.Game == nil || w.Dataset == nil {
			return nil, fmt.Errorf("core: workload needs game and dataset")
		}
		// Per-game accounting (gameAlloc, AvgUnderByGame, ...) is keyed
		// by name; two games sharing one would silently merge.
		if gameNames[w.Game.Name] {
			return nil, fmt.Errorf("core: duplicate game name %q across workloads", w.Game.Name)
		}
		gameNames[w.Game.Name] = true
		gameNameList = append(gameNameList, w.Game.Name)
		if samples == 0 {
			samples = w.Dataset.Samples()
		} else if w.Dataset.Samples() != samples {
			return nil, fmt.Errorf("core: datasets disagree on length")
		}
		regions := map[int]trace.Region{}
		for _, r := range w.Dataset.Regions {
			regions[r.ID] = r
		}
		for _, g := range w.Dataset.Groups {
			z := zoneState{
				game:    w.Game,
				group:   g,
				region:  regions[g.RegionID],
				tag:     fmt.Sprintf("%s/%s", w.Game.Name, g.Name()),
				idx:     len(zones),
				gameIdx: gi,
			}
			if !cfg.Static {
				if w.Predictor == nil {
					return nil, fmt.Errorf("core: dynamic mode needs a predictor for game %s", w.Game.Name)
				}
				z.predictor = w.Predictor()
			}
			zones = append(zones, z)
		}
	}
	if samples < 2 {
		return nil, fmt.Errorf("core: need at least 2 samples")
	}
	centersByName := map[string]*datacenter.Center{}
	for _, c := range cfg.Centers {
		centersByName[c.Name] = c
	}
	for _, f := range cfg.Failures {
		if f.AtTick < 0 {
			return nil, fmt.Errorf("core: failure of %q at negative tick %d", f.Center, f.AtTick)
		}
		if f.DurationTicks < 1 {
			return nil, fmt.Errorf("core: failure of %q needs DurationTicks >= 1, got %d", f.Center, f.DurationTicks)
		}
		if centersByName[f.Center] == nil {
			return nil, fmt.Errorf("core: failure names unknown center %q", f.Center)
		}
	}
	if cfg.FailoverBudgetPerTick < 0 {
		return nil, fmt.Errorf("core: FailoverBudgetPerTick must be >= 0, got %d", cfg.FailoverBudgetPerTick)
	}
	if cfg.BrownoutReserveFrac < 0 || cfg.BrownoutReserveFrac >= 1 {
		return nil, fmt.Errorf("core: BrownoutReserveFrac must be in [0,1), got %v", cfg.BrownoutReserveFrac)
	}
	var plan *faults.Plan
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if cfg.Faults.Enabled() {
			names := make([]string, len(cfg.Centers))
			for i, c := range cfg.Centers {
				names[i] = c.Name
			}
			fcfg := *cfg.Faults
			if fcfg.CorrelatedEnabled() && fcfg.Regions == nil {
				// Derive the failure domains from the centers' geography:
				// centers sharing a continental region share a domain.
				fcfg.Regions = make(map[string]string, len(cfg.Centers))
				for _, c := range cfg.Centers {
					fcfg.Regions[c.Name] = geo.RegionOf(c.Location)
				}
			}
			plan = faults.NewPlan(fcfg, names, samples)
		}
	}

	if cfg.Static {
		// Static provisioning reproduces the industry practice the
		// paper describes: a dedicated infrastructure sized up front
		// for each server group's peak demand.
		for i := range zones {
			z := &zones[i]
			peak := 0.0
			for _, v := range z.group.Load.Values {
				if v > peak {
					peak = v
				}
			}
			z.staticAlloc = demandVector(z.game, peak)
		}
		// With centers configured, each static fleet lives in a home
		// center (round-robin) and darkens with its outages — the
		// dedicated-infrastructure counterpart of the resilience
		// sweep, where dynamic provisioning fails over but a static
		// deployment cannot.
		if len(cfg.Centers) > 0 {
			for i := range zones {
				zones[i].home = cfg.Centers[i%len(cfg.Centers)]
			}
		}
	}

	matcher := ecosystem.NewMatcher(cfg.Centers)
	if plan != nil {
		matcher.SetFaultInjector(plan)
	}
	if decisions == nil && cfg.Provenance > 0 {
		decisions = ecosystem.NewDecisionLog(cfg.Provenance)
	}
	if decisions != nil {
		matcher.SetDecisionLog(decisions)
	}
	res := &Result{CenterStats: map[string]*CenterStats{}}
	if cfg.TrackCenters {
		for _, c := range cfg.Centers {
			res.CenterStats[c.Name] = &CenterStats{AllocatedByRegion: map[string]float64{}}
		}
	}
	// The per-tick series are appended to once per scored tick;
	// preallocating their full capacity keeps the tick loop free of
	// append growth (a resume replaces them with the restored slices).
	res.CumEvents = make([]int, 0, samples-1)
	res.OverPct = make([]float64, 0, samples-1)
	res.UnderPct = make([]float64, 0, samples-1)

	// Per-resource accumulators for the averages.
	var overSum, underSum [datacenter.NumResources]float64
	var overTicks [datacenter.NumResources]int

	// Per-game CPU accumulators: flat slices indexed by zone gameIdx,
	// zeroed in place every tick. gameShortSet replicates the old
	// scratch map's presence semantics — a game accumulates
	// under-allocation this tick only if some zone actually fell short.
	gameAlloc := make([]float64, len(gameNameList))
	gameShort := make([]float64, len(gameNameList))
	gameShortSet := make([]bool, len(gameNameList))
	gameUnderSum := make([]float64, len(gameNameList))

	start := zones[0].group.Load.Start
	tick := zones[0].group.Load.Tick

	// The acquire order decides who gets first pick when capacity is
	// contended. The default is submission order; with interaction
	// prioritization, the most compute-intensive games go first (a
	// stable sort of the index slice — the identical permutation the
	// old pointer-slice sort produced).
	acquireOrder := make([]int, len(zones))
	for i := range acquireOrder {
		acquireOrder[i] = i
	}
	if cfg.PrioritizeByInteraction {
		sort.SliceStable(acquireOrder, func(i, j int) bool {
			return zones[acquireOrder[i]].game.Update > zones[acquireOrder[j]].game.Update
		})
	}

	// Each tick splits into three phases. Phase 1 fans the per-zone
	// work — predictor Observe/Predict, demand conversion, per-zone
	// allocation scoring — out over this pool; every datum it touches
	// is zone-local (predictor state, leases) or read-only (trace,
	// game model), so zones never contend. Phase 2 folds the partials
	// sequentially in canonical zone order, and phase 3 submits the
	// contended resource requests sequentially in acquire order, which
	// keeps Result bit-for-bit independent of the worker count.
	pool := par.New(cfg.Workers)
	defer pool.Close()
	partials := make([]zonePartial, len(zones))
	// Per-worker scratch arenas, one cache line each so workers never
	// share a write-hot line. They hold the per-worker pieces of the
	// tick that are order-independent to combine (integer counts); all
	// float accumulation stays in the sequential reduce.
	arenas := make([]workerArena, pool.Workers())

	resil := &Resilience{Availability: map[string]float64{}}
	res.Resilience = resil
	tracker := newOutageTracker(cfg.Centers, resil)
	ro := newRunObs(cfg.Obs)

	// One provisioning step per zone, all sharing the run's counters and
	// telemetry; the bootstrap and acquire phases drive them in acquire
	// order.
	var counts provision.Counts
	tel := ro.telemetry()
	for i := range zones {
		z := &zones[i]
		z.step = provision.New(provision.Config{
			Matcher: matcher, Tag: z.tag, Origin: z.region.Location,
			MaxDistanceKm: z.game.LatencyKm, JitterKey: i,
			Counts: &counts, Telemetry: tel,
		})
	}

	// Brownout and recovery tracking. zoneShed marks the zones whose
	// demand is deliberately unserved this tick; brownoutActive and
	// capLossStart drive the transition events and the time-to-full-
	// recovery accounting (both survive checkpoints).
	var zoneShed []bool
	if cfg.Brownout && !cfg.Static {
		zoneShed = make([]bool, len(zones))
	}
	trackImpairment := !cfg.Static && (plan != nil || len(cfg.Failures) > 0 || cfg.Brownout)
	brownoutActive := false
	capLossStart := -1

	// applyFailures fires the scheduled and injected outages and
	// recoveries due at tick t: the capacity vanishes, and each zone's
	// step finds its released leases when it prunes, failing them over
	// within the same tick. Tick-0 outages fire before the bootstrap
	// acquire, so a center that is down from the start never hands out
	// leases. Recoveries apply first so windows meeting at one tick
	// compose through the refcount.
	applyFailures := func(t int) {
		for _, f := range cfg.Failures {
			if t == f.AtTick+f.DurationTicks {
				centersByName[f.Center].Recover()
				ro.recovery(t, f.Center, 1)
			}
		}
		// Region-level events bracket the member centers' own: the
		// blackout/recover markers fire before the per-center fail and
		// recover records they explain.
		for _, b := range plan.BlackoutRecoveriesAt(t) {
			ro.regionRecover(t, b.Region)
		}
		for _, o := range plan.RecoveriesAt(t) {
			if c := centersByName[o.Center]; o.Fraction >= 1 {
				c.Recover()
			} else {
				c.Restore(o.Fraction)
			}
			ro.recovery(t, o.Center, o.Fraction)
		}
		for _, f := range cfg.Failures {
			if t == f.AtTick {
				centersByName[f.Center].Fail()
				ro.outage(t, f.Center, 1)
			}
		}
		for _, b := range plan.BlackoutsAt(t) {
			resil.RegionBlackouts++
			ro.regionBlackout(t, b.Region)
		}
		for _, o := range plan.FailuresAt(t) {
			if c := centersByName[o.Center]; o.Fraction >= 1 {
				c.Fail()
			} else {
				c.Degrade(o.Fraction)
			}
			ro.outage(t, o.Center, o.Fraction)
		}
		tracker.observe(t)
	}

	// Checkpoint/resume: with a directory configured, adopt the newest
	// valid snapshot (skipping corrupt files) and continue from the
	// tick after it; otherwise run from the top. The bootstrap below is
	// part of tick 0 and is skipped on resume — its effects live in the
	// restored state.
	es := &engineState{
		cfg: &cfg, zones: zones, res: res,
		overSum: &overSum, underSum: &underSum, overTicks: &overTicks,
		gameNames: gameNameList, gameUnder: gameUnderSum,
		tracker: tracker, plan: plan, samples: samples, counts: &counts,
		brownoutActive: &brownoutActive, capLossStart: &capLossStart,
	}
	var ckptMgr *checkpoint.Manager
	ckptEvery := cfg.CheckpointEveryTicks
	if ckptEvery <= 0 {
		ckptEvery = 60
	}
	resumedTick := 0
	if cfg.CheckpointDir != "" {
		var err error
		ckptMgr, err = checkpoint.NewManager(cfg.CheckpointDir)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		snap, err := ckptMgr.Latest()
		switch {
		case err == nil:
			if resumedTick, err = es.restore(snap.Payload); err != nil {
				return nil, err
			}
			res.ResumedFromTick = resumedTick
			ro.resumed(resumedTick)
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Fresh run.
		default:
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	saveCheckpoint := func(t int) error {
		if ckptMgr == nil || (t%ckptEvery != 0 && t != cfg.StopAfterTick) {
			return nil
		}
		encStart := ro.now()
		payload, err := es.snapshot(t)
		if err != nil {
			return err
		}
		encDone := ro.now()
		if err := ckptMgr.Save(t, payload); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		ro.checkpointed(t, len(payload), encStart, encDone, ro.now())
		return nil
	}

	if resumedTick == 0 {
		applyFailures(0)
	}

	// Bootstrap: before the first scored tick the operator observes
	// the initial load and provisions for it, so the simulation does
	// not begin with an empty allocation (game sessions do not start
	// cold mid-operation).
	if !cfg.Static && resumedTick == 0 {
		ro.beginBootstrap()
		pool.ForWorker(len(zones), func(i, w int) {
			z := &zones[i]
			sp := ro.zoneSpan(z.tag, 0, w)
			defer sp.End()
			v := z.group.Load.At(0)
			if plan.DropSample(z.idx, 0) || math.IsNaN(v) {
				partials[i].dropped = true
				v = z.lastObs
			} else {
				partials[i].dropped = false
				z.lastObs = v
			}
			z.predictor.Observe(v)
			predicted := sanitizePrediction(z.predictor.Predict())
			partials[i].need = demandVector(z.game, predicted*(1+cfg.SafetyMargin))
		})
		for i := range zones {
			if partials[i].dropped {
				resil.DroppedSamples++
				ro.droppedSample(0, zones[i].tag)
			}
		}
		for _, zi := range acquireOrder {
			zones[zi].step.Acquire(0, start, partials[zi].need, true)
		}
		ro.endBootstrap()
	}

	// Phase 1 (parallel per-zone) body, hoisted out of the tick loop so
	// the fan-out allocates no per-tick closures. curTick/curNow/
	// curFinal are written by the sequential control path before each
	// fan-out. The body: score the allocation in force against the
	// actual demand, observe the new sample, and size the request
	// closing the gap to the predicted next demand. Monitoring dropouts
	// are decided by a stateless hash of (seed, zone, tick), so
	// parallel workers never contend on a random stream.
	var (
		curTick  int
		curNow   time.Time
		curFinal bool
	)
	zoneTick := func(i, w int) {
		z := &zones[i]
		sp := ro.zoneSpan(z.tag, curTick, w)
		defer sp.End()
		pt := &partials[i]
		if cfg.Static {
			pt.alloc = z.staticAlloc
			if z.home != nil {
				pt.alloc = z.staticAlloc.Scale(z.home.AvailableFraction())
			}
		} else {
			pt.alloc = z.step.Prune(curNow)
		}
		raw := z.group.Load.At(curTick)
		loadVal := raw
		if plan.DropSample(z.idx, curTick) || math.IsNaN(raw) {
			pt.dropped = true
			arenas[w].dropped++
			if math.IsNaN(raw) {
				// The sample is missing from the trace itself; the
				// carried-forward observation is the best load
				// estimate available for scoring.
				loadVal = z.lastObs
			}
		} else {
			pt.dropped = false
			z.lastObs = raw
		}
		pt.load = demandVector(z.game, loadVal)
		pt.need = datacenter.Vector{}
		if cfg.Static || curFinal {
			return
		}
		// Observe tick t (the last sample that arrived — dropouts
		// carry the previous observation forward so the predictor
		// state never ingests a hole), predict tick t+1. The
		// request is sized against the allocation surviving to the
		// next scoring instant, so leases renew before they lapse.
		z.predictor.Observe(z.lastObs)
		predicted := sanitizePrediction(z.predictor.Predict())
		want := demandVector(z.game, predicted*(1+cfg.SafetyMargin))
		have := z.step.AllocAt(curNow.Add(tick))
		pt.need = want.Sub(have).ClampNonNegative()
	}
	observePhase := func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			zoneTick(i, w)
		}
	}

	for t := resumedTick + 1; t < samples; t++ {
		tickStart := ro.now()
		ro.beginTick(t, "tick", tickStart)
		now := start.Add(time.Duration(t) * tick)
		applyFailures(t)
		if !cfg.Static {
			matcher.Expire(now)
		}
		final := t == samples-1
		phaseStart := ro.now()
		ro.beginObserve(phaseStart)

		// Phase 1 (parallel per-zone): chunked contiguous ranges give
		// each worker exclusive runs of the partials slice (no false
		// sharing) and amortize the work-stealing cursor over whole
		// chunks.
		curTick, curNow, curFinal = t, now, final
		for w := range arenas {
			arenas[w].dropped = 0
		}
		pool.ForRanges(len(zones), 0, observePhase)
		observeDone := ro.now()
		ro.observeDone(phaseStart, observeDone)

		// Phase 2 (sequential reduce): fold the per-zone partials in
		// canonical zone order — float summation order is fixed, so
		// the metrics do not depend on the worker count. The dropout
		// count sums the per-worker arena counters (an integer sum,
		// order-independent by construction); the per-zone walk for
		// dropout events only runs when telemetry wants them.
		var droppedNow int64
		for w := range arenas {
			droppedNow += arenas[w].dropped
		}
		resil.DroppedSamples += int(droppedNow)
		if ro != nil && droppedNow > 0 {
			for i := range zones {
				if partials[i].dropped {
					ro.droppedSample(t, zones[i].tag)
				}
			}
		}
		var alloc, load [datacenter.NumResources]float64
		var shortfall [datacenter.NumResources]float64
		for i := range zones {
			z := &zones[i]
			a, l := partials[i].alloc, partials[i].load
			for r := 0; r < int(datacenter.NumResources); r++ {
				alloc[r] += a[r]
				load[r] += l[r]
				if d := a[r] - l[r]; d < 0 {
					shortfall[r] += d
				}
			}
			gameAlloc[z.gameIdx] += a[datacenter.CPU]
			if d := a[datacenter.CPU] - l[datacenter.CPU]; d < 0 {
				gameShort[z.gameIdx] += d
				gameShortSet[z.gameIdx] = true
			}
		}
		// M in Equation 2 is the number of machines participating in
		// the game session: the machine-equivalents the allocation
		// occupies (one machine provides one CPU unit).
		machines := math.Ceil(alloc[datacenter.CPU])
		if machines < 1 {
			machines = 1
		}
		event := false
		worstUnder := 0.0
		for r := 0; r < int(datacenter.NumResources); r++ {
			if load[r] > 0 {
				overSum[r] += (alloc[r]/load[r] - 1) * 100
				overTicks[r]++
			}
			u := shortfall[r] / machines * 100
			underSum[r] += u
			if u < -SignificantUnderPct {
				event = true
			}
			if u < worstUnder {
				worstUnder = u
			}
		}
		if event {
			res.Events++
			ro.breach(t, worstUnder)
		}
		tracker.serviceHealthy(t, !event)
		res.CumEvents = append(res.CumEvents, res.Events)
		if load[datacenter.CPU] > 0 {
			res.OverPct = append(res.OverPct, (alloc[datacenter.CPU]/load[datacenter.CPU]-1)*100)
		} else {
			res.OverPct = append(res.OverPct, 0)
		}
		res.UnderPct = append(res.UnderPct, shortfall[datacenter.CPU]/machines*100)
		res.Ticks++

		// Per-game under-allocation: only games where some zone actually
		// fell short this tick accumulate (matching the old scratch
		// map's presence semantics); the accumulators reset in place.
		for gi := range gameAlloc {
			if gameShortSet[gi] {
				m := math.Ceil(gameAlloc[gi])
				if m < 1 {
					m = 1
				}
				gameUnderSum[gi] += gameShort[gi] / m * 100
			}
			gameAlloc[gi], gameShort[gi], gameShortSet[gi] = 0, 0, false
		}

		// Account center usage.
		if cfg.TrackCenters && !cfg.Static {
			for _, c := range cfg.Centers {
				cs := res.CenterStats[c.Name]
				cs.AvgAllocatedCPU += c.Allocated()[datacenter.CPU]
				cs.AvgFreeCPU += c.Free()[datacenter.CPU]
			}
			for i := range zones {
				z := &zones[i]
				for _, l := range z.step.Leases() {
					if l.Active(now) {
						res.CenterStats[l.Center.Name].AllocatedByRegion[z.region.Name] += l.Alloc[datacenter.CPU]
					}
				}
			}
		}

		reduceDone := ro.now()
		ro.reduceDone(observeDone, reduceDone)

		if cfg.Static || final {
			if err := saveCheckpoint(t); err != nil {
				return nil, err
			}
			ro.tickDone(t, tickStart, ro.now(),
				alloc[datacenter.CPU], load[datacenter.CPU],
				res.OverPct[len(res.OverPct)-1], res.UnderPct[len(res.UnderPct)-1], pool)
			if cfg.StopAfterTick > 0 && t >= cfg.StopAfterTick {
				return nil, ErrStopped
			}
			continue
		}

		// Phase 3 (sequential acquire): lease the per-zone gaps, in
		// submission/priority order — capacity contention resolves
		// exactly as in the sequential engine. The gap of a zone whose
		// leases died with a failed center this tick already includes
		// the loss, so the same acquisition doubles as the failover
		// re-acquisition — excluding the centers that dropped it.
		ro.beginAcquireSpan(reduceDone)

		// Brownout: when the surviving effective capacity — minus the
		// reserve held back per failure domain for failover headroom —
		// cannot cover this tick's demand, shed the lowest-priority
		// zones outright instead of letting every zone thrash over the
		// shortfall. The shed set is recomputed each brownout tick from
		// the live acquire order, so zones rejoin as capacity returns.
		if zoneShed != nil {
			budget := 0.0
			for _, c := range cfg.Centers {
				budget += c.EffectiveCapacity()[datacenter.CPU]
			}
			budget *= 1 - cfg.BrownoutReserveFrac
			demand := load[datacenter.CPU]
			if demand > budget {
				resil.BrownoutTicks++
				ro.brownoutTick()
				if !brownoutActive {
					brownoutActive = true
					ro.brownoutTransition(t, true, demand-budget)
				}
				kept := 0.0
				for _, zi := range acquireOrder {
					z := &zones[zi]
					zl := partials[zi].load[datacenter.CPU]
					// Always keep the highest-priority zone: shedding
					// everything serves no one.
					if kept+zl <= budget || kept == 0 {
						kept += zl
						zoneShed[zi] = false
						continue
					}
					zoneShed[zi] = true
					released := z.step.Release()
					if released > 0 || z.lastObs > 0 {
						resil.ShedLeases += released
						resil.ShedPlayerTicks += z.lastObs
						ro.shed(t, z.tag, z.lastObs, released)
					}
				}
			} else if brownoutActive {
				brownoutActive = false
				ro.brownoutTransition(t, false, 0)
				for i := range zoneShed {
					zoneShed[i] = false
				}
			}
		}

		// Time-to-full-recovery: track the longest stretch from capacity
		// impairment (a center down or degraded, or brownout engaged) to
		// the tick full capacity resumed.
		if trackImpairment {
			impaired := brownoutActive
			if !impaired {
				for _, c := range cfg.Centers {
					if c.AvailableFraction() < 1 {
						impaired = true
						break
					}
				}
			}
			switch {
			case impaired && capLossStart < 0:
				capLossStart = t
			case !impaired && capLossStart >= 0:
				if d := t - capLossStart; d > resil.TimeToFullRecoveryTicks {
					resil.TimeToFullRecoveryTicks = d
				}
				capLossStart = -1
			}
		}

		failoversNow := 0
		anyUnmet := false
		for _, zi := range acquireOrder {
			z := &zones[zi]
			if zoneShed != nil && zoneShed[zi] {
				// Shed in brownout: the demand is deliberately unserved.
				if z.lastObs > 0 {
					anyUnmet = true
				}
				continue
			}
			// Storm control: once the tick's failover budget is spent, a
			// zone that lost capacity parks instead of failing over.
			admit := cfg.FailoverBudgetPerTick == 0 || failoversNow < cfg.FailoverBudgetPerTick
			a := z.step.Acquire(t, now, partials[zi].need, admit)
			if a.Failover {
				failoversNow++
			}
			if a.Unmet {
				anyUnmet = true
			}
		}
		if anyUnmet {
			res.Unmet++
			ro.unmetTick()
		}
		ro.acquireDone(reduceDone, ro.now())
		// Checkpoints land at end-of-tick boundaries: everything tick t
		// did — metrics, leases, predictor updates, backoff — is in the
		// snapshot, and the resumed run re-enters the loop at t+1.
		if err := saveCheckpoint(t); err != nil {
			return nil, err
		}
		ro.tickDone(t, tickStart, ro.now(),
			alloc[datacenter.CPU], load[datacenter.CPU],
			res.OverPct[len(res.OverPct)-1], res.UnderPct[len(res.UnderPct)-1], pool)
		if cfg.StopAfterTick > 0 && t >= cfg.StopAfterTick {
			return nil, ErrStopped
		}
	}
	tracker.finish(res.Ticks)
	resil.Failovers, resil.FailoverLeases, resil.FailoversDeferred = counts.Failovers, counts.FailoverLeases, counts.Deferred
	resil.Retries, resil.Rejections, resil.PartialGrants = counts.Retries, counts.Rejections, counts.PartialGrants

	res.AvgUnderByGame = map[string]float64{}
	for gi, w := range cfg.Workloads {
		res.AvgUnderByGame[w.Game.Name] = gameUnderSum[gi] / float64(res.Ticks)
	}

	for r := 0; r < int(datacenter.NumResources); r++ {
		if overTicks[r] > 0 {
			res.AvgOverPct[r] = overSum[r] / float64(overTicks[r])
		} else {
			res.AvgOverPct[r] = math.NaN()
		}
		res.AvgUnderPct[r] = underSum[r] / float64(res.Ticks)
	}
	if cfg.TrackCenters {
		for _, cs := range res.CenterStats {
			cs.AvgAllocatedCPU /= float64(res.Ticks)
			cs.AvgFreeCPU /= float64(res.Ticks)
			for k := range cs.AllocatedByRegion {
				cs.AllocatedByRegion[k] /= float64(res.Ticks)
			}
		}
	}
	ro.finish(res)
	return res, nil
}

// DistanceClassShares buckets each center's served CPU by the distance
// between the requesting region and the center, in the five latency
// classes of Section V-E — the data behind Fig. 13.
func DistanceClassShares(res *Result, centers []*datacenter.Center, regions []trace.Region) map[geo.LatencyClass]map[string]float64 {
	regionLoc := map[string]geo.Point{}
	for _, r := range regions {
		regionLoc[r.Name] = r.Location
	}
	out := map[geo.LatencyClass]map[string]float64{}
	for _, c := range centers {
		cs := res.CenterStats[c.Name]
		if cs == nil {
			continue
		}
		for regionName, cpu := range cs.AllocatedByRegion {
			loc, ok := regionLoc[regionName]
			if !ok {
				continue
			}
			class := geo.ClassOf(geo.DistanceKm(loc, c.Location))
			if out[class] == nil {
				out[class] = map[string]float64{}
			}
			out[class][c.Name] += cpu
		}
	}
	return out
}
