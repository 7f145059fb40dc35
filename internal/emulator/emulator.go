// Package emulator reimplements the paper's distributed game emulator
// (Section IV-D1). The authors could not use the real RuneScape server
// code, so they built an emulator that drives artificial players
// through a sub-zoned game world and samples the per-sub-zone entity
// counts every two minutes; the resulting signals are the training and
// evaluation data for the load predictors (Fig. 5).
//
// The emulated players follow four AI profiles matching the four
// classic MMOG behavioral archetypes (achiever, explorer, socializer,
// killer):
//
//   - aggressive: seeks and interacts with opponents, converging on
//     populated sub-zones and creating interaction hot-spots;
//   - scout: discovers uncharted zones, spreading out;
//   - team player: acts in a group with its teammates;
//   - camper: hides and waits, rarely moving.
//
// Each entity has a preferred profile but switches dynamically with a
// small probability, reproducing the mixed behavior of deployed
// MMOGs. Besides the profile mix, the emulator models the paper's
// four knobs: peak hours (a diurnal active-population envelope), peak
// load, overall dynamics (day-scale variability), and instantaneous
// dynamics (two-minute-scale variability).
package emulator

import (
	"fmt"
	"math"

	"mmogdc/internal/series"
	"mmogdc/internal/xrand"
)

// Profile is an AI behavior archetype.
type Profile int

const (
	// Aggressive entities seek opponents (the "killer" archetype).
	Aggressive Profile = iota
	// Scout entities explore uncharted zones (the "explorer").
	Scout
	// TeamPlayer entities move with their team (the "socializer").
	TeamPlayer
	// Camper entities hide and wait (the "achiever" holding a spot).
	Camper
	numProfiles
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case Aggressive:
		return "aggressive"
	case Scout:
		return "scout"
	case TeamPlayer:
		return "team player"
	case Camper:
		return "camper"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// Level grades the paper's qualitative dynamics knobs.
type Level int

const (
	// Low dynamics: stable signal.
	Low Level = iota
	// Medium dynamics.
	Medium
	// High dynamics: fast, large changes.
	High
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Config parameterizes one emulation run (one Table I data set).
type Config struct {
	// Name labels the data set ("Set 1" ... "Set 8").
	Name string
	// Seed makes the run reproducible.
	Seed uint64
	// GridW and GridH set the sub-zone grid dimensions; both default
	// to 12 (144 sub-zones).
	GridW, GridH int
	// Entities is the peak entity population; defaults to 1800.
	Entities int
	// ProfileMix is the preferred-profile distribution in the order
	// aggressive, scout, team player, camper; it is normalized.
	ProfileMix [4]float64
	// PeakHours enables the diurnal active-population envelope.
	PeakHours bool
	// PeakLoad scales the entity population (relative popularity).
	PeakLoad Level
	// Overall sets the day-scale dynamics of the entity interaction.
	Overall Level
	// Instant sets the two-minute-scale dynamics.
	Instant Level
	// Steps is the number of two-minute samples; defaults to one
	// simulated day (720).
	Steps int
}

// teams is the number of teams team players belong to.
const teams = 8

func (c Config) withDefaults() Config {
	if c.GridW == 0 {
		c.GridW = 12
	}
	if c.GridH == 0 {
		c.GridH = 12
	}
	if c.Entities == 0 {
		c.Entities = 1800
	}
	if c.Steps == 0 {
		c.Steps = series.DefaultTicksPerDay
	}
	var sum float64
	for _, v := range c.ProfileMix {
		sum += v
	}
	if sum == 0 {
		c.ProfileMix = [4]float64{25, 25, 25, 25}
	}
	return c
}

// entity is one emulated player.
type entity struct {
	x, y      int
	preferred Profile
	current   Profile
	team      int
	active    bool
}

// World is a running emulation.
type World struct {
	cfg    Config
	rng    *xrand.Rand
	ents   []*entity
	counts []int // per-zone entity counts, row-major
	step   int
	// migrationP, respawnP and switchP derive from the dynamics levels.
	migrationP float64
	respawnP   float64
	switchP    float64
	// hotspot is a slowly wandering attractor for aggressive players.
	hotX, hotY float64
	// cyclePhase tracks the combat/round cycle (radians); cycleAmp and
	// cycleStep derive from the instantaneous-dynamics level.
	cyclePhase float64
	cycleAmp   float64
	cycleStep  float64
}

// NewWorld builds the world and places the entities.
func NewWorld(cfg Config) *World {
	c := cfg.withDefaults()
	w := &World{
		cfg:    c,
		rng:    xrand.New(c.Seed),
		counts: make([]int, c.GridW*c.GridH),
	}
	w.migrationP = migrationProbability(c.Instant)
	w.respawnP = respawnProbability(c.Instant)
	w.switchP = switchProbability(c.Overall)
	w.cycleAmp, w.cycleStep = cycleParameters(c.Instant)
	w.hotX = float64(c.GridW) / 2
	w.hotY = float64(c.GridH) / 2

	weights := make([]float64, numProfiles)
	for i, v := range c.ProfileMix {
		weights[i] = v
	}
	for i := 0; i < c.Entities; i++ {
		p := Profile(w.rng.WeightedChoice(weights))
		e := &entity{
			x:         w.rng.Intn(c.GridW),
			y:         w.rng.Intn(c.GridH),
			preferred: p,
			current:   p,
			team:      w.rng.Intn(teams),
			active:    true,
		}
		w.ents = append(w.ents, e)
		w.counts[w.zoneIndex(e.x, e.y)]++
	}
	return w
}

func migrationProbability(instant Level) float64 {
	// Probability per step that an entity relocates. High instantaneous
	// dynamics (fast-paced FPS play) means most entities move every
	// sample; low (MMORPG wandering) means few do.
	switch instant {
	case Low:
		return 0.06
	case Medium:
		return 0.30
	default:
		return 0.85
	}
}

func respawnProbability(instant Level) float64 {
	// Probability that a move is a death/respawn teleport to a random
	// zone rather than a directed step. Fast-paced play (high
	// instantaneous dynamics) kills and respawns players constantly,
	// which is what makes consecutive two-minute samples of a zone
	// fluctuate around the interaction attractors instead of drifting
	// like a random walk.
	switch instant {
	case Low:
		return 0.03
	case Medium:
		return 0.10
	default:
		return 0.25
	}
}

// cycleParameters returns the amplitude and per-step phase advance of
// the combat/round cycle. Fast-paced games run in rounds: the active
// population in the interaction areas swells during combat and thins
// during respawn/lobby phases, a rhythm with a period of a few
// sampling intervals. This oscillation is the "large difference in
// the entity interaction over a short period of time" that defines
// high instantaneous dynamics — and, unlike white churn, it is
// *predictable* from the recent window, which is exactly what
// separates a learned predictor from fixed smoothers.
func cycleParameters(instant Level) (amp, step float64) {
	switch instant {
	case Low:
		return 0.05, 2 * math.Pi / 12
	case Medium:
		return 0.18, 2 * math.Pi / 12
	default:
		return 0.30, 2 * math.Pi / 12
	}
}

// hotspotDrift returns the per-step standard deviation of the
// hot-spot attractor's random walk, in zones.
func hotspotDrift(overall Level) float64 {
	switch overall {
	case Low:
		return 0
	case Medium:
		return 0.12
	default:
		return 0.45
	}
}

func switchProbability(overall Level) float64 {
	// Probability per step that an entity temporarily plays another
	// profile. Higher overall dynamics shifts the interaction structure
	// over the day.
	switch overall {
	case Low:
		return 0.002
	case Medium:
		return 0.01
	default:
		return 0.03
	}
}

func (w *World) zoneIndex(x, y int) int { return y*w.cfg.GridW + x }

// ZoneCounts returns a copy of the current per-zone entity counts.
func (w *World) ZoneCounts() []int {
	out := make([]int, len(w.counts))
	copy(out, w.counts)
	return out
}

// InteractionCount returns the number of entity pairs currently able
// to interact: entities sharing a sub-zone (a sub-zone is exactly one
// interaction neighborhood). This is the quantity the paper's update
// models abstract — counting it lets an experiment measure the
// *empirical* interaction-scaling exponent of a profile mix instead of
// assuming one.
func (w *World) InteractionCount() int {
	total := 0
	for _, n := range w.counts {
		total += n * (n - 1) / 2
	}
	return total
}

// ActiveEntities returns the number of currently active entities.
func (w *World) ActiveEntities() int {
	n := 0
	for _, e := range w.ents {
		if e.active {
			n++
		}
	}
	return n
}

// activeTarget returns how many entities should be active at a step,
// applying the peak-hours envelope and overall dynamics.
func (w *World) activeTarget(step int) int {
	c := w.cfg
	frac := 1.0
	if c.PeakHours {
		hour := 24 * float64(step%series.DefaultTicksPerDay) / float64(series.DefaultTicksPerDay)
		// Evening peak, early-morning trough, like the trace package.
		frac = 0.55 + 0.45*math.Sin(2*math.Pi*(hour-13.5)/24)
	}
	switch c.Overall {
	case High:
		// A slow extra wave makes day-scale interaction drift larger.
		frac *= 1 + 0.25*math.Sin(2*math.Pi*float64(step)/float64(c.Steps)*3)
	case Medium:
		frac *= 1 + 0.10*math.Sin(2*math.Pi*float64(step)/float64(c.Steps)*3)
	}
	peakScale := 1.0
	switch c.PeakLoad {
	case Low:
		peakScale = 0.5
	case Medium:
		peakScale = 0.75
	}
	// Combat/round cycle: the phase advances with slight jitter so the
	// rhythm drifts like real matches do.
	frac *= 1 + w.cycleAmp*math.Sin(w.cyclePhase)
	// Login/logout churn: the instantaneous population fluctuates
	// around the envelope (sessions start and end at will).
	frac *= 1 + 0.04*w.rng.NormFloat64()
	n := int(frac * peakScale * float64(c.Entities))
	if n < 0 {
		n = 0
	}
	if n > c.Entities {
		n = c.Entities
	}
	return n
}

// Step advances the world by one two-minute sample.
func (w *World) Step() {
	c := w.cfg
	// 0. Advance the combat cycle with phase jitter.
	w.cyclePhase += w.cycleStep * (1 + 0.04*w.rng.NormFloat64())

	// 1. Log in / log out entities toward the activity target.
	target := w.activeTarget(w.step)
	w.adjustActive(target)

	// 2. Drift the hot-spot attractor. The drift rate is the overall
	// (day-scale) dynamics knob: with low overall dynamics the action
	// stays at the map's choke points, with high dynamics the centers
	// of interaction relocate over the day.
	drift := hotspotDrift(c.Overall)
	if drift > 0 {
		w.hotX = clampF(w.hotX+w.rng.Norm(0, drift), 0, float64(c.GridW-1))
		w.hotY = clampF(w.hotY+w.rng.Norm(0, drift), 0, float64(c.GridH-1))
	}

	// 3. Team rally points: the centroid of each team's members.
	teamX := make([]float64, teams)
	teamY := make([]float64, teams)
	teamN := make([]int, teams)
	for _, e := range w.ents {
		if !e.active {
			continue
		}
		teamX[e.team] += float64(e.x)
		teamY[e.team] += float64(e.y)
		teamN[e.team]++
	}
	for t := 0; t < teams; t++ {
		if teamN[t] > 0 {
			teamX[t] /= float64(teamN[t])
			teamY[t] /= float64(teamN[t])
		}
	}

	// 4. Find the globally most crowded zone: aggressive entities are
	// drawn to the action, which is what concentrates the population
	// into interaction hot-spots.
	crowdX, crowdY, crowdBest := int(w.hotX), int(w.hotY), -1
	for y := 0; y < c.GridH; y++ {
		for x := 0; x < c.GridW; x++ {
			if n := w.counts[w.zoneIndex(x, y)]; n > crowdBest {
				crowdBest, crowdX, crowdY = n, x, y
			}
		}
	}

	// combatBias swings with the round cycle: near 1 during combat
	// (aggressive players converge on the fight), near 0 during the
	// respawn/regroup phase (they scatter). The swing width scales
	// with the instantaneous-dynamics level via cycleAmp.
	swing := w.cycleAmp * 3.3
	if swing > 1 {
		swing = 1
	}
	combatBias := 0.5 * (1 + swing*math.Sin(w.cyclePhase))

	// 5. Move entities.
	for _, e := range w.ents {
		if !e.active {
			continue
		}
		// Dynamic profile switching: temporarily adopt a random
		// profile, or revert to the preferred one.
		if w.rng.Float64() < w.switchP {
			if e.current != e.preferred {
				e.current = e.preferred
			} else {
				e.current = Profile(w.rng.Intn(int(numProfiles)))
			}
		}
		p := w.migrationP
		if e.current == Camper {
			p *= 0.08 // campers hold their spot
		}
		if w.rng.Float64() >= p {
			continue
		}
		respawnP := w.respawnP
		if e.current == Aggressive {
			// Aggressive players die (and scatter) mostly during the
			// low phase of the round cycle and pile into the fight
			// during the high phase.
			respawnP *= 2 * (1 - combatBias)
		}
		var nx, ny int
		if e.current != Camper && w.rng.Float64() < respawnP {
			// Death and respawn: rejoin the world at a random zone.
			nx, ny = w.rng.Intn(c.GridW), w.rng.Intn(c.GridH)
		} else {
			nx, ny = w.proposeMove(e, teamX, teamY, crowdX, crowdY, combatBias)
		}
		if nx == e.x && ny == e.y {
			continue
		}
		w.counts[w.zoneIndex(e.x, e.y)]--
		e.x, e.y = nx, ny
		w.counts[w.zoneIndex(e.x, e.y)]++
	}
	w.step++
}

// adjustActive logs entities in or out to reach the target count.
// Logins place the entity near the hot-spot (new players join the
// action); logouts pick random active entities.
func (w *World) adjustActive(target int) {
	active := w.ActiveEntities()
	for active < target {
		// Activate the first inactive entity (scan from a random
		// offset to avoid bias).
		off := w.rng.Intn(len(w.ents))
		for i := 0; i < len(w.ents); i++ {
			e := w.ents[(off+i)%len(w.ents)]
			if !e.active {
				e.active = true
				e.x = clampI(int(w.hotX)+w.rng.Intn(5)-2, 0, w.cfg.GridW-1)
				e.y = clampI(int(w.hotY)+w.rng.Intn(5)-2, 0, w.cfg.GridH-1)
				w.counts[w.zoneIndex(e.x, e.y)]++
				break
			}
		}
		active++
	}
	for active > target {
		off := w.rng.Intn(len(w.ents))
		for i := 0; i < len(w.ents); i++ {
			e := w.ents[(off+i)%len(w.ents)]
			if e.active {
				e.active = false
				w.counts[w.zoneIndex(e.x, e.y)]--
				break
			}
		}
		active--
	}
}

// proposeMove returns the entity's next zone according to its current
// profile.
func (w *World) proposeMove(e *entity, teamX, teamY []float64, crowdX, crowdY int, combatBias float64) (int, int) {
	c := w.cfg
	switch e.current {
	case Aggressive:
		// Seek opponents: usually head for the globally most crowded
		// zone (the fight everyone has heard about), otherwise climb
		// toward the most crowded neighboring zone. The pull follows
		// the round cycle.
		if w.rng.Float64() < 0.15+0.7*combatBias {
			return w.stepToward(e.x, e.y, crowdX, crowdY)
		}
		bx, by, best := e.x, e.y, -1
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := e.x+dx, e.y+dy
				if nx < 0 || ny < 0 || nx >= c.GridW || ny >= c.GridH {
					continue
				}
				if n := w.counts[w.zoneIndex(nx, ny)]; n > best {
					best, bx, by = n, nx, ny
				}
			}
		}
		if best <= 0 {
			return w.stepToward(e.x, e.y, int(w.hotX), int(w.hotY))
		}
		return bx, by
	case Scout:
		// Move toward the least crowded neighboring zone.
		bx, by := e.x, e.y
		best := math.MaxInt
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := e.x+dx, e.y+dy
				if nx < 0 || ny < 0 || nx >= c.GridW || ny >= c.GridH {
					continue
				}
				if n := w.counts[w.zoneIndex(nx, ny)]; n < best {
					best, bx, by = n, nx, ny
				}
			}
		}
		return bx, by
	case TeamPlayer:
		return w.stepToward(e.x, e.y, int(teamX[e.team]+0.5), int(teamY[e.team]+0.5))
	case Camper:
		// A rare reposition to a random nearby zone.
		nx := clampI(e.x+w.rng.Intn(3)-1, 0, c.GridW-1)
		ny := clampI(e.y+w.rng.Intn(3)-1, 0, c.GridH-1)
		return nx, ny
	default:
		return e.x, e.y
	}
}

func (w *World) stepToward(x, y, tx, ty int) (int, int) {
	nx, ny := x, y
	if tx > x {
		nx++
	} else if tx < x {
		nx--
	}
	if ty > y {
		ny++
	} else if ty < y {
		ny--
	}
	return clampI(nx, 0, w.cfg.GridW-1), clampI(ny, 0, w.cfg.GridH-1)
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DataSet is the output of one emulation run: the per-sub-zone entity
// counts over time plus the total, sampled every two minutes.
type DataSet struct {
	Config Config
	// Zones[z] is the entity-count series of sub-zone z (row-major).
	Zones []*series.Series
	// Total is the sum across sub-zones (the global signal Fig. 5's
	// prediction error is computed against).
	Total *series.Series
	// Interactions is the per-step count of co-located entity pairs —
	// the raw material of the update-model abstraction.
	Interactions *series.Series
}

// Run executes the emulation and collects the data set.
func Run(cfg Config) *DataSet {
	w := NewWorld(cfg)
	c := w.cfg
	ds := &DataSet{
		Config:       c,
		Zones:        make([]*series.Series, len(w.counts)),
		Total:        series.New(series.DefaultTick, seriesStart),
		Interactions: series.New(series.DefaultTick, seriesStart),
	}
	for z := range ds.Zones {
		ds.Zones[z] = series.New(series.DefaultTick, seriesStart)
	}
	for s := 0; s < c.Steps; s++ {
		w.Step()
		total := 0.0
		for z, n := range w.counts {
			ds.Zones[z].Append(float64(n))
			total += float64(n)
		}
		ds.Total.Append(total)
		ds.Interactions.Append(float64(w.InteractionCount()))
	}
	return ds
}
