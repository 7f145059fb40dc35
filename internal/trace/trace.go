// Package trace generates and manipulates MMOG population traces.
//
// The paper's evaluation is driven by ten months of RuneScape traces
// scraped from the official server list: the number of players of each
// server group, sampled every two minutes, across five geographic
// regions. Those traces are not redistributable, so this package
// implements a calibrated synthetic generator that reproduces every
// statistical property the paper reports about them (Section III):
//
//   - a strong diurnal cycle — the autocorrelation function of a
//     server-group load has a clear positive peak at a lag of 24 hours
//     (720 two-minute samples) and a negative peak at 12 hours;
//   - during peak hours the median group load sits roughly 50% above
//     the off-peak minimum;
//   - load variability between server groups (the IQR across groups)
//     follows the same diurnal cycle;
//   - about one third of the traces show a weekend effect, the rest do
//     not;
//   - 2–5% of the server groups are pinned at ~95% load around the
//     clock (special-purpose worlds), except for outages;
//   - rare short-lived outages drop a group to zero;
//   - population-level events: an unpopular game change causes a ~25%
//     crash of the active concurrent population within a day followed
//     by a recovery to ~95% of the old level, and a content release
//     causes a ~50% surge that decays over about a week (Fig. 2).
//
// Every generated dataset is a deterministic function of its seed.
package trace

import (
	"fmt"
	"math"
	"time"

	"mmogdc/internal/geo"
	"mmogdc/internal/series"
	"mmogdc/internal/xrand"
)

// SamplesPerDay is the number of two-minute samples in a day.
const SamplesPerDay = 24 * 30

// GroupCapacity is the player capacity of one server group (one fully
// loaded RuneScape game server handles 2000 clients).
const GroupCapacity = 2000

// Region identifies one of the five geographic player regions.
type Region struct {
	// ID is the paper's region index (region 0 is Europe).
	ID int
	// Name is a human label.
	Name string
	// Location anchors latency computations for the region's players.
	Location geo.Point
	// UTCOffsetHours shifts the diurnal cycle to local time.
	UTCOffsetHours float64
	// Groups is the number of server groups serving the region.
	Groups int
	// WeekendEffect raises weekend load when true; the paper found
	// this in about one third of its traces.
	WeekendEffect bool
}

// DefaultRegions mirrors the paper's five-region world with region 0
// (Europe) carrying 40 server groups as in the Fig. 3 analysis.
func DefaultRegions() []Region {
	return []Region{
		{ID: 0, Name: "Europe", Location: geo.London, UTCOffsetHours: 0, Groups: 40, WeekendEffect: false},
		{ID: 1, Name: "US East Coast", Location: geo.NewYork, UTCOffsetHours: -5, Groups: 30, WeekendEffect: true},
		{ID: 2, Name: "US West Coast", Location: geo.SanJose, UTCOffsetHours: -8, Groups: 25, WeekendEffect: false},
		{ID: 3, Name: "US Central", Location: geo.Chicago, UTCOffsetHours: -6, Groups: 20, WeekendEffect: true},
		{ID: 4, Name: "Australia", Location: geo.Sydney, UTCOffsetHours: 10, Groups: 10, WeekendEffect: false},
	}
}

// EventKind distinguishes the population-level events of Fig. 2.
type EventKind int

const (
	// ContentRelease triggers a surge (~+50%) that decays over a week.
	ContentRelease EventKind = iota
	// UnpopularDecision triggers a crash (~-25%) within a day followed
	// by a partial recovery once the change is amended.
	UnpopularDecision
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case ContentRelease:
		return "content release"
	case UnpopularDecision:
		return "unpopular decision"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is a population-level event applied to the whole game.
type Event struct {
	Kind EventKind
	// Day is the fractional day (from trace start) the event fires.
	Day float64
	// Magnitude scales the effect: for ContentRelease the peak surge
	// fraction (0.5 = +50%), for UnpopularDecision the crash fraction
	// (0.25 = -25%).
	Magnitude float64
	// RecoveryDays controls how long the effect takes to settle.
	RecoveryDays float64
	// ResidualLevel is the long-run multiplier after an unpopular
	// decision is amended (the paper observes 0.95).
	ResidualLevel float64
}

// Multiplier returns the population multiplier the event contributes
// at fractional day t.
func (e Event) Multiplier(t float64) float64 {
	dt := t - e.Day
	if dt < 0 {
		return 1
	}
	switch e.Kind {
	case ContentRelease:
		// Fast ramp-up over ~half a day, exponential decay back to 1
		// with the given time constant.
		ramp := math.Min(dt*2, 1)
		decay := math.Exp(-dt / math.Max(e.RecoveryDays, 0.1))
		return 1 + e.Magnitude*ramp*decay
	case UnpopularDecision:
		residual := e.ResidualLevel
		if residual == 0 {
			residual = 0.95
		}
		// Crash to (1-Magnitude) within a day, then recover toward the
		// residual level.
		crash := math.Min(dt*2, 1) // full effect after half a day
		level := 1 - e.Magnitude*crash
		if dt > 1 {
			rec := 1 - math.Exp(-(dt-1)/math.Max(e.RecoveryDays, 0.1))
			level += (residual - (1 - e.Magnitude)) * rec
			if level > residual {
				level = residual
			}
		}
		return level
	default:
		return 1
	}
}

// Fig2Events reproduces the December 2007 / January 2008 sequence of
// Fig. 2: an unpopular decision, then two content releases.
func Fig2Events() []Event {
	return []Event{
		{Kind: UnpopularDecision, Day: 22, Magnitude: 0.25, RecoveryDays: 3, ResidualLevel: 0.95},
		{Kind: ContentRelease, Day: 30, Magnitude: 0.5, RecoveryDays: 3.5},
		{Kind: ContentRelease, Day: 58, Magnitude: 0.5, RecoveryDays: 3.5},
	}
}

// The generator's calibration. Every dataset uses these values.
const (
	// meanUtilization is the average off-peak group utilization.
	meanUtilization = 0.45
	// diurnalAmplitude is the relative swing of the daily cycle.
	// Per-group loads swing strongly over the day (Fig. 3 top: group
	// loads range from near-empty to near-full); the ~50% figure in
	// Section III-C is the cross-sectional median-to-min spread at
	// peak hours, not the temporal swing.
	diurnalAmplitude = 0.55
	// noiseLevel is the relative magnitude of short-term fluctuations.
	noiseLevel = 0.03
	// minigameFraction is the share of server groups hosting minigame
	// worlds. RuneScape's minigames run in rounds on a game-wide
	// timer; the population of a minigame world swells during a round
	// and thins between rounds, a predictable short-term oscillation
	// on top of the diurnal cycle.
	minigameFraction = 0.4
	// minigameAmp is the relative amplitude of the round oscillation.
	minigameAmp = 0.13
	// minigamePeriod is the round length in samples (game-wide timer):
	// 24 minutes.
	minigamePeriod = 12
)

// Config parameterizes a synthetic dataset.
type Config struct {
	// Seed makes the dataset reproducible.
	Seed uint64
	// Days is the trace length (the Fig. 3 analysis uses 16: two full
	// weeks plus the two adjacent days).
	Days int
	// Start is the wall-clock time of the first sample.
	Start time.Time
	// Regions defaults to DefaultRegions when empty.
	Regions []Region
	// Events are population-level events; empty means a quiet trace.
	Events []Event
	// SaturatedFraction is the share of groups pinned at ~95% load
	// (paper: 2–5%). Defaults to 0.03 when zero.
	SaturatedFraction float64
	// OutageRatePerDay is the per-group expected number of outages per
	// day. Defaults to 0.02 (rare) when zero.
	OutageRatePerDay float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if len(out.Regions) == 0 {
		out.Regions = DefaultRegions()
	}
	if out.Days == 0 {
		out.Days = 16
	}
	if out.Start.IsZero() {
		out.Start = time.Date(2007, 8, 18, 0, 0, 0, 0, time.UTC)
	}
	if out.SaturatedFraction == 0 {
		out.SaturatedFraction = 0.03
	}
	if out.OutageRatePerDay == 0 {
		out.OutageRatePerDay = 0.02
	}
	return out
}

// Group is one server group's trace.
type Group struct {
	// RegionID is the owning region.
	RegionID int
	// Index is the group index within the region.
	Index int
	// Saturated marks the always-nearly-full special worlds.
	Saturated bool
	// Load is the player count over time (two-minute samples).
	Load *series.Series
}

// Name returns a stable identifier such as "r0g12".
func (g *Group) Name() string { return fmt.Sprintf("r%dg%d", g.RegionID, g.Index) }

// Dataset is a full synthetic trace: all groups of all regions.
type Dataset struct {
	Config  Config
	Regions []Region
	Groups  []*Group
}

// RegionGroups returns the groups belonging to a region.
func (d *Dataset) RegionGroups(regionID int) []*Group {
	var out []*Group
	for _, g := range d.Groups {
		if g.RegionID == regionID {
			out = append(out, g)
		}
	}
	return out
}

// RegionLoad returns the summed load of a region over time.
func (d *Dataset) RegionLoad(regionID int) (*series.Series, error) {
	groups := d.RegionGroups(regionID)
	if len(groups) == 0 {
		return nil, fmt.Errorf("trace: region %d has no groups", regionID)
	}
	all := make([]*series.Series, len(groups))
	for i, g := range groups {
		all[i] = g.Load
	}
	return series.SumAcross(all)
}

// GlobalLoad returns the total population over time (the Fig. 2 view).
func (d *Dataset) GlobalLoad() (*series.Series, error) {
	if len(d.Groups) == 0 {
		return nil, fmt.Errorf("trace: empty dataset")
	}
	all := make([]*series.Series, len(d.Groups))
	for i, g := range d.Groups {
		all[i] = g.Load
	}
	return series.SumAcross(all)
}

// Samples returns the number of samples per group.
func (d *Dataset) Samples() int {
	if len(d.Groups) == 0 {
		return 0
	}
	return d.Groups[0].Load.Len()
}

// diurnal returns the relative daily activity at local fractional hour
// h in [0, 24): low in the early morning, peaking in the evening
// (online-gaming peak hours, Section IV-D1).
func diurnal(h float64) float64 {
	// Two-harmonic shape: trough around 05:00, peak around 19:30.
	return 0.55*math.Sin(2*math.Pi*(h-13.5)/24) + 0.12*math.Sin(4*math.Pi*(h-1.5)/24)
}

// Generate builds a dataset from the configuration. The same Config
// (including Seed) always produces the identical dataset.
func Generate(cfg Config) *Dataset {
	c := cfg.withDefaults()
	root := xrand.New(c.Seed)
	nSamples := c.Days * SamplesPerDay

	// The minigame round timer is game-wide: one phase series shared
	// by every minigame world, so their populations swell and thin
	// together (which is what makes the rising edge of a round a
	// game-wide provisioning event).
	phaseRand := root.Split(0xabcdef)
	roundPhase := make([]float64, nSamples)
	roundScale := make([]float64, nSamples)
	phase := 2 * math.Pi * phaseRand.Float64()
	// A run-time division: the constant quotient 2π/12 rounds one ulp
	// differently.
	period := float64(minigamePeriod)
	step := 2 * math.Pi / period
	scale := 1.0
	prevWrap := 0.0
	for i := range roundPhase {
		phase += step * (1 + 0.03*phaseRand.NormFloat64())
		roundPhase[i] = phase
		// Each round has its own popularity: redraw the amplitude
		// scale when a new round starts (phase wraps 2π). The next
		// round's draw is unpredictable from the current window, so
		// even a well-trained predictor faces genuine surprises.
		if wrap := math.Floor(phase / (2 * math.Pi)); wrap != prevWrap {
			prevWrap = wrap
			scale = phaseRand.LogNormal(0, 0.35)
			if scale > 2.5 {
				scale = 2.5
			}
		}
		roundScale[i] = scale
	}

	ds := &Dataset{Config: c, Regions: c.Regions}
	for _, reg := range c.Regions {
		regRand := root.Split(uint64(reg.ID) + 1)
		for gi := 0; gi < reg.Groups; gi++ {
			gRand := regRand.Split(uint64(gi) + 1)
			grp := generateGroup(c, reg, gi, gRand, nSamples, roundPhase, roundScale)
			ds.Groups = append(ds.Groups, grp)
		}
	}
	return ds
}

func generateGroup(c Config, reg Region, gi int, r *xrand.Rand, nSamples int, roundPhase, roundScale []float64) *Group {
	g := &Group{
		RegionID: reg.ID,
		Index:    gi,
		Load:     series.New(series.DefaultTick, c.Start),
	}
	g.Load.Values = make([]float64, 0, nSamples)

	g.Saturated = r.Float64() < c.SaturatedFraction

	// Per-group personality: base utilization and phase jitter vary
	// between groups so the cross-group IQR is non-trivial.
	base := meanUtilization * (0.75 + 0.5*r.Float64())
	amp := diurnalAmplitude * (0.8 + 0.4*r.Float64())
	phase := r.Norm(0, 0.4) // hours of per-group phase jitter

	outages := scheduleOutages(c, r, nSamples)

	// Minigame worlds oscillate with the game-wide round timer; each
	// world has its own amplitude and a small phase offset (players
	// trickle in at slightly different speeds).
	minigame := r.Float64() < minigameFraction
	gameAmp := 0.0
	phaseOffset := 0.0
	if minigame {
		gameAmp = minigameAmp * (0.7 + 0.6*r.Float64())
		phaseOffset = r.Norm(0, 0.25)
	}

	// AR(1) noise keeps consecutive samples correlated, like real
	// population counts.
	noise := 0.0
	const arCoeff = 0.9
	noiseScale := noiseLevel * math.Sqrt(1-arCoeff*arCoeff)

	for i := 0; i < nSamples; i++ {
		day := float64(i) / SamplesPerDay
		if g.Saturated {
			v := 0.95 * GroupCapacity * (1 + r.Norm(0, 0.005))
			if outages[i] {
				v = 0
			}
			g.Load.Append(clamp(v, 0, GroupCapacity))
			continue
		}

		localHour := math.Mod(24*day+reg.UTCOffsetHours+phase+240, 24)
		util := base * (1 + amp*diurnal(localHour))

		if reg.WeekendEffect {
			weekday := int(math.Mod(day+float64(c.Start.Weekday()), 7))
			if weekday == int(time.Saturday) || weekday == int(time.Sunday) {
				util *= 1.18
			}
		}

		for _, e := range c.Events {
			util *= e.Multiplier(day)
		}

		if minigame {
			util *= 1 + gameAmp*roundScale[i]*math.Sin(roundPhase[i]+phaseOffset)
		}

		noise = arCoeff*noise + r.Norm(0, noiseScale)
		util *= 1 + noise

		v := util * GroupCapacity
		if outages[i] {
			v = 0
		}
		g.Load.Append(clamp(v, 0, GroupCapacity))
	}
	return g
}

// scheduleOutages marks the samples during which the group is down.
// Outage arrivals are Poisson with the configured daily rate; outage
// durations are short (paper: "few and short-lived").
func scheduleOutages(c Config, r *xrand.Rand, nSamples int) []bool {
	down := make([]bool, nSamples)
	ratePerSample := c.OutageRatePerDay / SamplesPerDay
	for i := 0; i < nSamples; i++ {
		if r.Float64() < ratePerSample {
			// 6–30 minutes, i.e. 3–15 samples.
			dur := 3 + r.Intn(13)
			for j := i; j < i+dur && j < nSamples; j++ {
				down[j] = true
			}
			i += dur
		}
	}
	return down
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
