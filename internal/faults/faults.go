// Package faults implements the seeded, deterministic stochastic
// fault injector of the resilience experiments. The paper collected
// its traces from a live ecosystem that was anything but clean —
// centers disappear, monitoring samples go missing, hosters refuse or
// trim requests — and Section VI studies over-provisioning precisely
// because of that churn. This package turns those messy realities into
// a reproducible fault plan:
//
//   - center outages drawn from MTBF/MTTR exponential distributions,
//     either full (the center goes dark) or partial (it loses a
//     fraction of its machines but keeps serving);
//   - lease-grant rejections and partial grants with configurable
//     probabilities (a hoster vetoing or trimming an otherwise
//     admissible request);
//   - monitoring dropouts: per-zone load samples that never arrive,
//     as in the real RuneScape website scrape.
//
// Everything is pre-generated or derived from pure functions of the
// seed, so a fault-injected simulation is bit-identical for any
// worker count: the outage schedule is fixed before the run starts,
// dropout decisions are a stateless hash of (seed, zone, tick), and
// grant faults consume a dedicated sequential stream driven only by
// the (deterministic) sequence of grant attempts.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mmogdc/internal/xrand"
)

// Config parameterizes the injector. The zero value injects nothing.
type Config struct {
	// Seed drives every stochastic choice; the same seed reproduces
	// the identical fault plan and grant-fault stream.
	Seed uint64
	// MTBFTicks is the mean number of healthy ticks between outages
	// per center (exponentially distributed); 0 disables outages.
	MTBFTicks float64
	// MTTRTicks is the mean outage duration in ticks (exponentially
	// distributed, minimum 1); defaults to 10 when outages are on.
	MTTRTicks float64
	// DegradedShare is the probability that an outage is partial — the
	// center loses a uniform 10–90% of its machines instead of going
	// fully dark. 0 makes every outage full.
	DegradedShare float64
	// RejectProb is the probability that one center's grant attempt is
	// rejected outright during matching.
	RejectProb float64
	// PartialGrantProb is the probability that a non-rejected grant is
	// trimmed to a uniform 25–75% of the attempted amount.
	PartialGrantProb float64
	// DropoutProb is the probability that one zone's monitoring sample
	// is missing at one tick (the operator must carry the last
	// observation forward).
	DropoutProb float64

	// Regions maps center name → failure-domain name for the correlated
	// outage model below. Centers absent from the map never join a
	// region blackout. Callers that know center locations typically fill
	// it from geo.RegionOf; a nil map with no region faults configured
	// is the (default) uncorrelated model.
	Regions map[string]string
	// RegionMTBFTicks is the mean number of healthy ticks between
	// whole-region blackouts per region (exponentially distributed);
	// 0 disables the stochastic blackout process. A blackout downs
	// every center of the region at once — the correlated failure mode
	// independent per-center MTBF draws cannot produce.
	RegionMTBFTicks float64
	// RegionMTTRTicks is the mean blackout duration in ticks
	// (exponentially distributed, minimum 1); defaults to 10 when
	// region blackouts are on.
	RegionMTTRTicks float64
	// AftershockProb is the probability that one center of a recovering
	// region suffers a partial-degradation aftershock — it comes back
	// at reduced capacity for a while (aftershockMeanTicks on average)
	// before restoring fully.
	AftershockProb float64
	// ScheduledBlackouts adds deterministic region blackouts at fixed
	// ticks, independent of the stochastic process — the scenario-corpus
	// hook ("region eu goes dark at peak").
	ScheduledBlackouts []RegionBlackout
	// ScheduledOutages adds deterministic full outages of single centers
	// at fixed ticks (mmogsim's -failures file). They draw nothing from
	// any stream, so adding one leaves every other fault unchanged.
	ScheduledOutages []CenterOutage
}

// aftershockMeanTicks is the mean aftershock duration in ticks
// (exponentially distributed, minimum 1).
const aftershockMeanTicks = 5

// RegionBlackout is one deterministic whole-region outage window:
// every center of Region fails at Start and recovers Duration ticks
// later (clamped inside the run).
type RegionBlackout struct {
	Region   string
	Start    int
	Duration int
}

// CenterOutage is one deterministic full outage of a center: it fails
// at Start and recovers Duration ticks later. The window is not clamped
// to the run, so one reaching past the run's end never recovers.
type CenterOutage struct {
	Center   string
	Start    int
	Duration int
}

// Enabled reports whether the configuration injects anything at all.
func (c Config) Enabled() bool {
	return c.MTBFTicks > 0 || c.RejectProb > 0 || c.PartialGrantProb > 0 ||
		c.DropoutProb > 0 || c.RegionMTBFTicks > 0 || len(c.ScheduledBlackouts) > 0 ||
		len(c.ScheduledOutages) > 0
}

// CorrelatedEnabled reports whether the configuration injects
// region-correlated faults (stochastic blackouts or a scheduled
// corpus). Callers use it to decide whether to derive a region
// topology for the centers.
func (c Config) CorrelatedEnabled() bool {
	return c.RegionMTBFTicks > 0 || len(c.ScheduledBlackouts) > 0
}

// effectiveMTTR applies the NewPlan default so validation judges the
// repair time that will actually be used.
func effectiveMTTR(mttr, def float64) float64 {
	if mttr <= 0 {
		return def
	}
	return mttr
}

// Validate rejects configurations outside the model's domain. Every
// float field must be finite: the range tests are negated so NaN fails
// them too.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"MTBFTicks", c.MTBFTicks},
		{"MTTRTicks", c.MTTRTicks},
		{"RegionMTBFTicks", c.RegionMTBFTicks},
		{"RegionMTTRTicks", c.RegionMTTRTicks},
	} {
		if !(p.v >= 0 && p.v <= math.MaxFloat64) {
			return fmt.Errorf("faults: %s must be finite and >= 0, got %v", p.name, p.v)
		}
	}
	if c.MTBFTicks > 0 {
		if mttr := effectiveMTTR(c.MTTRTicks, 10); mttr >= c.MTBFTicks {
			return fmt.Errorf("faults: MTTR (%v) must be < MTBF (%v) — repairs at least as slow as failures keep centers permanently down", mttr, c.MTBFTicks)
		}
	}
	if c.RegionMTBFTicks > 0 {
		if mttr := effectiveMTTR(c.RegionMTTRTicks, 10); mttr >= c.RegionMTBFTicks {
			return fmt.Errorf("faults: region MTTR (%v) must be < region MTBF (%v) — repairs at least as slow as failures keep regions permanently dark", mttr, c.RegionMTBFTicks)
		}
	}
	for i, b := range c.ScheduledBlackouts {
		if b.Region == "" {
			return fmt.Errorf("faults: ScheduledBlackouts[%d] has no region", i)
		}
		if b.Start < 0 || b.Duration < 1 {
			return fmt.Errorf("faults: ScheduledBlackouts[%d] (%s) needs Start >= 0 and Duration >= 1 (got %d/%d)", i, b.Region, b.Start, b.Duration)
		}
	}
	for i, o := range c.ScheduledOutages {
		if o.Start < 0 || o.Duration < 1 {
			return fmt.Errorf("faults: ScheduledOutages[%d] (%s) needs Start >= 0 and Duration >= 1 (got %d/%d)", i, o.Center, o.Start, o.Duration)
		}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"DegradedShare", c.DegradedShare},
		{"RejectProb", c.RejectProb},
		{"PartialGrantProb", c.PartialGrantProb},
		{"DropoutProb", c.DropoutProb},
		{"AftershockProb", c.AftershockProb},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("faults: %s must be in [0,1], got %v", p.name, p.v)
		}
	}
	return nil
}

// ParseBlackouts parses a blackout spec (mmogsim's -blackout flag):
// comma-separated region:startTick:durationTicks windows.
func ParseBlackouts(spec string) ([]RegionBlackout, error) {
	var out []RegionBlackout
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("blackout %q: want region:startTick:durationTicks", item)
		}
		start, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("blackout %q: bad start tick: %v", item, err)
		}
		dur, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil {
			return nil, fmt.Errorf("blackout %q: bad duration: %v", item, err)
		}
		out = append(out, RegionBlackout{
			Region: strings.TrimSpace(parts[0]), Start: start, Duration: dur,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("blackout: no windows in %q", spec)
	}
	return out, nil
}

// Outage is one fault window of a center: Fail (or Degrade) fires at
// Start, the matching Recover (or Restore) at End. A generated
// outage's End is clamped inside the run, so it recovers before the
// simulation finishes; a scheduled one keeps its configured End.
type Outage struct {
	// Center is the affected center's name.
	Center string
	// Start and End delimit the window in ticks: [Start, End).
	Start, End int
	// Fraction is the share of the center's machines lost: 1 is a full
	// outage, anything below is a partial capacity degradation.
	Fraction float64
	// Region names the failure domain when the window belongs to a
	// correlated region event (blackout or aftershock); empty for the
	// independent per-center draws.
	Region string
}

// Blackout is one whole-region outage window: every mapped center of
// Region is dark over [Start, End).
type Blackout struct {
	Region     string
	Start, End int
}

// Plan is the pre-generated fault schedule of one run plus the
// sequential grant-fault stream. A nil *Plan is valid and injects
// nothing, so callers can thread it unconditionally.
type Plan struct {
	cfg        Config
	outages    []Outage
	failAt     map[int][]Outage
	recoverAt  map[int][]Outage
	blackouts  []Blackout
	blackStart map[int][]Blackout
	blackEnd   map[int][]Blackout
	grants     *xrand.Rand
	dropSeed   uint64
}

// expTicks draws an exponential number of ticks with the given mean,
// clamped to the run length before the conversion so no mean can
// overflow int; a draw within the run is unchanged.
func expTicks(r *xrand.Rand, mean float64, ticks int) int {
	return int(min(r.Exp(mean), float64(ticks)))
}

// NewPlan generates the fault schedule for a run of the given length
// over the named centers. The schedule is a pure function of the
// configuration, the center order, and ticks. Call Validate first;
// NewPlan assumes a valid configuration.
func NewPlan(cfg Config, centers []string, ticks int) *Plan {
	if cfg.MTBFTicks > 0 && cfg.MTTRTicks <= 0 {
		cfg.MTTRTicks = 10
	}
	root := xrand.New(cfg.Seed ^ 0x6fa17a1c5eed5a1d)
	p := &Plan{
		cfg:        cfg,
		failAt:     map[int][]Outage{},
		recoverAt:  map[int][]Outage{},
		blackStart: map[int][]Blackout{},
		blackEnd:   map[int][]Blackout{},
		grants:     root.Split(0x67a47),
		dropSeed:   root.Split(0xd0b0).Uint64(),
	}
	if cfg.MTBFTicks > 0 {
		for i, name := range centers {
			r := root.Split(uint64(i) + 1)
			t := 0
			for {
				start := t + 1 + expTicks(r, cfg.MTBFTicks, ticks)
				if start >= ticks-1 {
					break
				}
				end := start + 1 + expTicks(r, cfg.MTTRTicks, ticks)
				if end > ticks-1 {
					end = ticks - 1
				}
				frac := 1.0
				if r.Bool(cfg.DegradedShare) {
					frac = 0.1 + 0.8*r.Float64()
				}
				p.outages = append(p.outages, Outage{Center: name, Start: start, End: end, Fraction: frac})
				t = end
			}
		}
	}
	if cfg.CorrelatedEnabled() {
		p.generateRegionFaults(root, centers, ticks)
	}
	// Stable: correlated region windows can legitimately tie an
	// independent draw on (Start, Center); generation order breaks the
	// tie deterministically. Without region faults no ties exist, so
	// the ordering is unchanged from the uncorrelated model.
	sort.SliceStable(p.outages, func(i, j int) bool {
		a, b := p.outages[i], p.outages[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Center < b.Center
	})
	// Scheduled outages apply first at their ticks, in configuration
	// order. An End past math.MaxInt saturates: it never arrives.
	for _, w := range cfg.ScheduledOutages {
		end := math.MaxInt
		if w.Duration < end-w.Start {
			end = w.Start + w.Duration
		}
		o := Outage{Center: w.Center, Start: w.Start, End: end, Fraction: 1}
		p.failAt[o.Start] = append(p.failAt[o.Start], o)
		p.recoverAt[o.End] = append(p.recoverAt[o.End], o)
	}
	for _, o := range p.outages {
		p.failAt[o.Start] = append(p.failAt[o.Start], o)
		p.recoverAt[o.End] = append(p.recoverAt[o.End], o)
	}
	sort.SliceStable(p.blackouts, func(i, j int) bool {
		a, b := p.blackouts[i], p.blackouts[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Region < b.Region
	})
	for _, b := range p.blackouts {
		p.blackStart[b.Start] = append(p.blackStart[b.Start], b)
		p.blackEnd[b.End] = append(p.blackEnd[b.End], b)
	}
	return p
}

// generateRegionFaults layers the correlated region-blackout schedule —
// deterministic corpus blackouts plus the stochastic per-region
// process — on top of the independent per-center draws. Every stream
// here is a fresh Split child of root, so enabling region faults never
// perturbs the per-center, grant, or dropout draws (and
// vice versa: goldens without region faults stay bit-identical).
func (p *Plan) generateRegionFaults(root *xrand.Rand, centers []string, ticks int) {
	cfg := p.cfg
	byRegion := map[string][]string{}
	for _, name := range centers {
		if reg := cfg.Regions[name]; reg != "" {
			byRegion[reg] = append(byRegion[reg], name)
		}
	}
	addBlackout := func(region string, start, end int, r *xrand.Rand) {
		members := byRegion[region]
		if len(members) == 0 {
			return
		}
		p.blackouts = append(p.blackouts, Blackout{Region: region, Start: start, End: end})
		for _, name := range members {
			p.outages = append(p.outages, Outage{
				Center: name, Start: start, End: end, Fraction: 1, Region: region,
			})
			if cfg.AftershockProb > 0 && r.Bool(cfg.AftershockProb) {
				aEnd := end + 1 + expTicks(r, aftershockMeanTicks, ticks)
				if aEnd > ticks-1 {
					aEnd = ticks - 1
				}
				frac := 0.2 + 0.6*r.Float64()
				if end < ticks-1 && aEnd > end {
					p.outages = append(p.outages, Outage{
						Center: name, Start: end, End: aEnd, Fraction: frac, Region: region,
					})
				}
			}
		}
	}
	// The deterministic corpus first, with its own aftershock stream.
	sa := root.Split(0x5afe7c)
	for _, b := range cfg.ScheduledBlackouts {
		if b.Start >= ticks-1 {
			continue
		}
		// Saturate at the run's end: Start+Duration may overflow.
		end := ticks - 1
		if b.Duration < end-b.Start {
			end = b.Start + b.Duration
		}
		addBlackout(b.Region, b.Start, end, sa)
	}
	// Then the stochastic process: one split stream per region, keyed
	// by the sorted region order so the schedule is independent of map
	// iteration and of which centers happen to exist.
	if cfg.RegionMTBFTicks > 0 {
		mttr := cfg.RegionMTTRTicks
		if mttr <= 0 {
			mttr = 10
		}
		regions := make([]string, 0, len(byRegion))
		for reg := range byRegion {
			regions = append(regions, reg)
		}
		sort.Strings(regions)
		regRoot := root.Split(0xb1ac0de)
		for ri, reg := range regions {
			r := regRoot.Split(uint64(ri) + 1)
			t := 0
			for {
				start := t + 1 + expTicks(r, cfg.RegionMTBFTicks, ticks)
				if start >= ticks-1 {
					break
				}
				end := start + 1 + expTicks(r, mttr, ticks)
				if end > ticks-1 {
					end = ticks - 1
				}
				addBlackout(reg, start, end, r)
				t = end
			}
		}
	}
}

// FailuresAt returns the outages beginning at tick t, the scheduled
// ones first.
func (p *Plan) FailuresAt(t int) []Outage {
	if p == nil {
		return nil
	}
	return p.failAt[t]
}

// RecoveriesAt returns the outages ending at tick t, the scheduled
// ones first.
func (p *Plan) RecoveriesAt(t int) []Outage {
	if p == nil {
		return nil
	}
	return p.recoverAt[t]
}

// BlackoutsAt returns the region blackouts beginning at tick t.
func (p *Plan) BlackoutsAt(t int) []Blackout {
	if p == nil {
		return nil
	}
	return p.blackStart[t]
}

// BlackoutRecoveriesAt returns the region blackouts ending at tick t.
func (p *Plan) BlackoutRecoveriesAt(t int) []Blackout {
	if p == nil {
		return nil
	}
	return p.blackEnd[t]
}

// SnapshotGrants captures the state of the sequential grant-fault
// stream so a checkpointed run can resume it mid-sequence; the other
// fault sources (outage schedule, dropout hash) are pure functions of
// the seed and need no snapshot.
func (p *Plan) SnapshotGrants() [4]uint64 {
	return p.grants.Snapshot()
}

// RestoreGrants re-establishes a grant-stream state captured by
// SnapshotGrants.
func (p *Plan) RestoreGrants(s [4]uint64) error {
	return p.grants.Restore(s)
}

// DropSample reports whether zone's monitoring sample at tick is
// missing. It is a pure function of (seed, zone, tick) — safe to call
// from parallel per-zone workers in any order without perturbing any
// stream.
func (p *Plan) DropSample(zone, tick int) bool {
	if p == nil || p.cfg.DropoutProb <= 0 {
		return false
	}
	h := p.dropSeed
	h ^= uint64(zone)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	h ^= uint64(tick) * 0xbf58476d1ce4e5b9
	h = xrand.Mix64(h)
	return float64(h>>11)/(1<<53) < p.cfg.DropoutProb
}

// GrantFault decides the fate of one grant attempt at the named
// center: rejected outright, trimmed to frac of the attempt, or
// untouched (frac 1). It consumes the plan's sequential grant stream,
// so the caller must issue attempts in a deterministic order (the
// matching loop is sequential in both provisioning engines).
func (p *Plan) GrantFault(center string) (reject bool, frac float64) {
	if p == nil || (p.cfg.RejectProb <= 0 && p.cfg.PartialGrantProb <= 0) {
		return false, 1
	}
	return DrawGrantFault(p.grants, p.cfg.RejectProb, p.cfg.PartialGrantProb)
}

// DrawGrantFault draws one grant attempt's fate from r: rejected with
// probability rejectProb, else trimmed to a uniform 25–75% with
// probability partialProb, else untouched (frac 1). Plan.GrantFault
// and the daemon's hot-reloadable injector share it, so both consume
// their streams in the same order.
func DrawGrantFault(r *xrand.Rand, rejectProb, partialProb float64) (reject bool, frac float64) {
	if r.Bool(rejectProb) {
		return true, 0
	}
	if r.Bool(partialProb) {
		return false, 0.25 + 0.5*r.Float64()
	}
	return false, 1
}
