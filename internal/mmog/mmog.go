// Package mmog implements the paper's MMOG application model
// (Section II-A): persistent game worlds made of entities spread over
// zones, whose server load is driven not only by the entity count but
// by the number and type of entity interactions. The interaction type
// is captured by an update model — the asymptotic cost of computing
// one state update for a zone with n entities — ranging from O(n) for
// mostly-solitary games to O(n^3) for games where groups of many
// players interact, with the O(n log n) and O(n^2 log n) variants for
// games that use area-of-interest filtering.
//
// The package also converts a predicted per-zone entity count into a
// resource demand (CPU, memory, external network in/out) expressed in
// the paper's abstract resource units, where 1.0 unit of each resource
// is what a fully loaded game server consumes.
package mmog

import (
	"fmt"
	"math"

	"mmogdc/internal/datacenter"
)

// FullServerClients is the player capacity of one fully loaded game
// server: the paper's RuneScape-like setup handles 2000 simultaneous
// clients per machine (Section V-A).
const FullServerClients = 2000

// ExtNetOutUnitMBps is the real bandwidth behind one abstract external
// outward network unit: 3 MB/s for a fully loaded server (Section V-A).
const ExtNetOutUnitMBps = 3.0

// UpdateModel is the asymptotic per-tick state-update cost of a game
// zone as a function of its entity count (Section II-A).
type UpdateModel int

const (
	// UpdateLinear is O(n): players are mostly solitary.
	UpdateLinear UpdateModel = iota
	// UpdateNLogN is O(n·log n): individually interacting players with
	// area-of-interest filtering.
	UpdateNLogN
	// UpdateQuadratic is O(n^2): many individually acting players
	// interacting with each other.
	UpdateQuadratic
	// UpdateQuadraticLog is O(n^2·log n): interacting groups with
	// area-of-interest filtering.
	UpdateQuadraticLog
	// UpdateCubic is O(n^3): groups of many players each interacting.
	UpdateCubic
)

// AllUpdateModels lists the models in increasing complexity order, the
// order Table VI and Figs. 9–10 sweep them.
var AllUpdateModels = []UpdateModel{
	UpdateLinear, UpdateNLogN, UpdateQuadratic, UpdateQuadraticLog, UpdateCubic,
}

// String implements fmt.Stringer with the paper's notation.
func (m UpdateModel) String() string {
	switch m {
	case UpdateLinear:
		return "O(n)"
	case UpdateNLogN:
		return "O(n x log(n))"
	case UpdateQuadratic:
		return "O(n^2)"
	case UpdateQuadraticLog:
		return "O(n^2 x log(n))"
	case UpdateCubic:
		return "O(n^3)"
	default:
		return fmt.Sprintf("UpdateModel(%d)", int(m))
	}
}

// rawCost returns the un-normalized update cost for n entities. log is
// log2(n+2) so the cost is smooth and positive for small n; only the
// models that use it compute it.
func (m UpdateModel) rawCost(n float64) float64 {
	if n <= 0 {
		return 0
	}
	switch m {
	case UpdateNLogN:
		return n * math.Log2(n+2)
	case UpdateQuadratic:
		return n * n
	case UpdateQuadraticLog:
		return n * n * math.Log2(n+2)
	case UpdateCubic:
		return n * n * n
	default:
		return n
	}
}

// fullCost[m] is rawCost(FullServerClients) under model m; an unknown
// model costs like UpdateLinear.
var fullCost = func() (c [UpdateCubic + 1]float64) {
	for _, m := range AllUpdateModels {
		c[m] = m.rawCost(FullServerClients)
	}
	return c
}()

// CPUUnits returns the CPU demand in abstract units for a zone with n
// entities. The cost is normalized so a full zone (FullServerClients
// entities) needs exactly 1.0 unit under every model; what changes
// between models is the curvature: super-linear models are cheap for
// half-empty zones but explode past the nominal capacity, which is
// exactly what makes interaction hot-spots expensive to provision.
func (m UpdateModel) CPUUnits(n float64) float64 {
	if n <= 0 {
		return 0
	}
	full := fullCost[UpdateLinear]
	if m >= 0 && int(m) < len(fullCost) {
		full = fullCost[m]
	}
	return m.rawCost(n) / full
}

// Genre describes an MMOG design archetype (Section II-A); it fixes
// the interaction model.
type Genre int

const (
	// GenrePuzzle has very low interaction and high latency tolerance.
	GenrePuzzle Genre = iota
	// GenreRPG has small-group interaction with a sparse environment.
	GenreRPG
	// GenreMMORPG is a large-scale RPG with area-of-interest filtering.
	GenreMMORPG
	// GenreRTS has group-level interaction and moderate tolerance.
	GenreRTS
	// GenreFPS has very high interaction in confined areas and the
	// tightest latency budget.
	GenreFPS
)

// String implements fmt.Stringer.
func (g Genre) String() string {
	switch g {
	case GenrePuzzle:
		return "puzzle"
	case GenreRPG:
		return "RPG"
	case GenreMMORPG:
		return "MMORPG"
	case GenreRTS:
		return "RTS"
	case GenreFPS:
		return "FPS"
	default:
		return fmt.Sprintf("Genre(%d)", int(g))
	}
}

// DefaultUpdateModel returns the interaction model typical for the
// genre.
func (g Genre) DefaultUpdateModel() UpdateModel {
	switch g {
	case GenrePuzzle:
		return UpdateLinear
	case GenreRPG:
		return UpdateNLogN
	case GenreMMORPG:
		return UpdateQuadratic
	case GenreRTS:
		return UpdateQuadraticLog
	case GenreFPS:
		return UpdateCubic
	default:
		return UpdateQuadratic
	}
}

// Game describes one MMOG title handled by a game operator.
type Game struct {
	// Name identifies the game in reports.
	Name string
	// Genre fixes the default Update model.
	Genre Genre
	// Update is the interaction model used to convert entity counts
	// into CPU demand.
	Update UpdateModel
	// Latency constrains how far (geographically) servers may be from
	// the players, expressed as one of the paper's five classes.
	LatencyKm float64
	// Profile scales the non-CPU resources demanded per CPU unit.
	Profile ResourceProfile
}

// NewGame returns a game with genre-derived defaults. The latency
// bound starts unconstrained.
func NewGame(name string, genre Genre) *Game {
	return &Game{
		Name:      name,
		Genre:     genre,
		Update:    genre.DefaultUpdateModel(),
		LatencyKm: math.Inf(1),
		Profile:   DefaultProfile,
	}
}

// ResourceProfile expresses how much of each non-CPU resource one CPU
// unit of game load drags along, in abstract units. A fully loaded
// server (1.0 CPU unit) needs 1.0 of each by definition.
type ResourceProfile struct {
	MemoryPerCPU    float64
	ExtNetInPerCPU  float64
	ExtNetOutPerCPU float64
}

// DefaultProfile is the RuneScape-like profile: a fully loaded server
// consumes exactly one unit of each resource.
var DefaultProfile = ResourceProfile{
	MemoryPerCPU:    1.0,
	ExtNetInPerCPU:  1.0,
	ExtNetOutPerCPU: 1.0,
}

// DemandForEntities converts a zone entity count into the full
// resource demand vector for this game. CPU follows the update model;
// memory scales with entity state; network scales with the entity
// count (each connected client receives its update stream regardless
// of how expensive the zone simulation is).
func (g *Game) DemandForEntities(n float64) datacenter.Vector {
	if n <= 0 {
		return datacenter.Vector{}
	}
	linear := n / FullServerClients
	return datacenter.Vector{
		datacenter.CPU:       g.Update.CPUUnits(n),
		datacenter.Memory:    linear * g.Profile.MemoryPerCPU,
		datacenter.ExtNetIn:  linear * g.Profile.ExtNetInPerCPU,
		datacenter.ExtNetOut: linear * g.Profile.ExtNetOutPerCPU,
	}
}

// DemandForZones sums the demand over a set of per-zone entity counts.
// This is where interaction hot-spots become visible: 2000 entities in
// one zone cost far more than 2000 entities spread over four zones
// under a super-linear update model.
func (g *Game) DemandForZones(zoneEntities []float64) datacenter.Vector {
	var total datacenter.Vector
	for _, n := range zoneEntities {
		total = total.Add(g.DemandForEntities(n))
	}
	return total
}
