package mmog

import (
	"math"
	"testing"
	"testing/quick"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/xrand"
)

func TestUpdateModelStrings(t *testing.T) {
	want := map[UpdateModel]string{
		UpdateLinear:       "O(n)",
		UpdateNLogN:        "O(n x log(n))",
		UpdateQuadratic:    "O(n^2)",
		UpdateQuadraticLog: "O(n^2 x log(n))",
		UpdateCubic:        "O(n^3)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if UpdateModel(42).String() != "UpdateModel(42)" {
		t.Error("unknown model String() wrong")
	}
}

func TestCPUUnitsNormalization(t *testing.T) {
	// Every model must cost exactly 1.0 unit at full server capacity.
	for _, m := range AllUpdateModels {
		if got := m.CPUUnits(FullServerClients); math.Abs(got-1) > 1e-12 {
			t.Errorf("%v: CPUUnits(full) = %v, want 1", m, got)
		}
	}
}

func TestCPUUnitsZeroAndNegative(t *testing.T) {
	for _, m := range AllUpdateModels {
		if m.CPUUnits(0) != 0 || m.CPUUnits(-5) != 0 {
			t.Errorf("%v: non-positive entity count should cost 0", m)
		}
	}
}

// refCPUUnits is the CPU demand formula with log2(n+2) computed for
// every model and the full-server cost recomputed on every call.
func refCPUUnits(m UpdateModel, n float64) float64 {
	raw := func(n float64) float64 {
		if n <= 0 {
			return 0
		}
		lg := math.Log2(n + 2)
		switch m {
		case UpdateLinear:
			return n
		case UpdateNLogN:
			return n * lg
		case UpdateQuadratic:
			return n * n
		case UpdateQuadraticLog:
			return n * n * lg
		case UpdateCubic:
			return n * n * n
		default:
			return n
		}
	}
	if n <= 0 {
		return 0
	}
	return raw(n) / raw(FullServerClients)
}

// TestCPUUnitsMatchesFormula checks CPUUnits against the formula bit
// for bit under every model and two out of range, along a seeded random
// walk of entity counts salted with 0, -0, negative, NaN, ±Inf, huge
// and subnormal values.
func TestCPUUnitsMatchesFormula(t *testing.T) {
	models := append(append([]UpdateModel(nil), AllUpdateModels...), UpdateCubic+1, -1)
	specials := []float64{
		0, math.Copysign(0, -1), -1, -1e300, math.NaN(), math.Inf(1), math.Inf(-1),
		FullServerClients, 1e300, 5e-324,
	}
	r := xrand.New(5)
	level := 1000.0
	for i := 0; i < 200000; i++ {
		var n float64
		switch k := r.Intn(10); {
		case k < 7:
			level = math.Abs(level + r.Norm(0, 50))
			n = level
		case k < 9:
			n = r.Float64() * math.Pow(10, float64(r.Intn(12)))
		default:
			n = specials[r.Intn(len(specials))]
		}
		for _, m := range models {
			if got, want := m.CPUUnits(n), refCPUUnits(m, n); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v: CPUUnits(%v) = %v, formula %v", m, n, got, want)
			}
		}
	}
}

func TestCPUUnitsMonotone(t *testing.T) {
	for _, m := range AllUpdateModels {
		prev := 0.0
		for n := 1.0; n <= 4*FullServerClients; n *= 1.5 {
			cur := m.CPUUnits(n)
			if cur <= prev {
				t.Fatalf("%v: CPUUnits not strictly increasing at n=%v", m, n)
			}
			prev = cur
		}
	}
}

func TestSuperLinearOrderingAboveCapacity(t *testing.T) {
	// Past the nominal capacity, more complex models must cost more
	// (the hot-spot effect); below half capacity the ordering flips.
	n := 2.0 * FullServerClients
	for i := 0; i+1 < len(AllUpdateModels); i++ {
		lo := AllUpdateModels[i].CPUUnits(n)
		hi := AllUpdateModels[i+1].CPUUnits(n)
		if hi <= lo {
			t.Errorf("at n=%v, %v (%v) should cost more than %v (%v)",
				n, AllUpdateModels[i+1], hi, AllUpdateModels[i], lo)
		}
	}
	n = 0.25 * FullServerClients
	for i := 0; i+1 < len(AllUpdateModels); i++ {
		lo := AllUpdateModels[i].CPUUnits(n)
		hi := AllUpdateModels[i+1].CPUUnits(n)
		if hi >= lo {
			t.Errorf("at quarter load, %v should cost less than %v", AllUpdateModels[i+1], AllUpdateModels[i])
		}
	}
}

func TestGenreDefaults(t *testing.T) {
	cases := []struct {
		g      Genre
		update UpdateModel
	}{
		{GenrePuzzle, UpdateLinear},
		{GenreRPG, UpdateNLogN},
		{GenreMMORPG, UpdateQuadratic},
		{GenreRTS, UpdateQuadraticLog},
		{GenreFPS, UpdateCubic},
	}
	for _, c := range cases {
		if got := c.g.DefaultUpdateModel(); got != c.update {
			t.Errorf("%v default update = %v, want %v", c.g, got, c.update)
		}
	}
}

func TestGenreStrings(t *testing.T) {
	for _, g := range []Genre{GenrePuzzle, GenreRPG, GenreMMORPG, GenreRTS, GenreFPS} {
		if g.String() == "" {
			t.Errorf("genre %d has empty String", int(g))
		}
	}
}

func TestNewGameDefaults(t *testing.T) {
	g := NewGame("test", GenreFPS)
	if g.Update != UpdateCubic {
		t.Errorf("FPS game update = %v", g.Update)
	}
	if !math.IsInf(g.LatencyKm, 1) {
		t.Errorf("default latency should be unconstrained")
	}
	if g.Profile != DefaultProfile {
		t.Errorf("default profile not applied")
	}
}

func TestDemandForEntitiesFullServer(t *testing.T) {
	g := NewGame("rs", GenreMMORPG)
	d := g.DemandForEntities(FullServerClients)
	for name, v := range map[string]float64{
		"cpu": d[datacenter.CPU], "mem": d[datacenter.Memory], "in": d[datacenter.ExtNetIn], "out": d[datacenter.ExtNetOut],
	} {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("full-server %s demand = %v, want 1", name, v)
		}
	}
	if !g.DemandForEntities(0).IsZero() {
		t.Error("zero entities should have zero demand")
	}
}

func TestNetworkScalesLinearlyRegardlessOfModel(t *testing.T) {
	// Network demand tracks client count, not simulation complexity.
	for _, genre := range []Genre{GenrePuzzle, GenreFPS} {
		g := NewGame("x", genre)
		d := g.DemandForEntities(FullServerClients / 2)
		if math.Abs(d[datacenter.ExtNetOut]-0.5) > 1e-9 {
			t.Errorf("%v: half-load ExtNetOut = %v, want 0.5", genre, d[datacenter.ExtNetOut])
		}
	}
}

func TestHotSpotCostsMoreThanSpreadLoad(t *testing.T) {
	// The same population concentrated in one zone must cost more CPU
	// than spread across zones, for every super-linear model.
	for _, m := range AllUpdateModels[1:] {
		g := &Game{Name: "hs", Update: m, Profile: DefaultProfile}
		hot := g.DemandForZones([]float64{2000, 0, 0, 0})
		spread := g.DemandForZones([]float64{500, 500, 500, 500})
		if hot[datacenter.CPU] <= spread[datacenter.CPU] {
			t.Errorf("%v: hot-spot CPU %v should exceed spread CPU %v", m, hot[datacenter.CPU], spread[datacenter.CPU])
		}
		// Network is population-driven, so it must match.
		if math.Abs(hot[datacenter.ExtNetOut]-spread[datacenter.ExtNetOut]) > 1e-9 {
			t.Errorf("%v: network demand should not depend on spread", m)
		}
	}
}

func TestLinearModelIndifferentToSpread(t *testing.T) {
	g := &Game{Name: "lin", Update: UpdateLinear, Profile: DefaultProfile}
	hot := g.DemandForZones([]float64{2000})
	spread := g.DemandForZones([]float64{1000, 1000})
	if math.Abs(hot[datacenter.CPU]-spread[datacenter.CPU]) > 1e-9 {
		t.Errorf("O(n) should be spread-invariant: %v vs %v", hot[datacenter.CPU], spread[datacenter.CPU])
	}
}

func TestDemandForZonesAdditive(t *testing.T) {
	g := NewGame("add", GenreMMORPG)
	zones := []float64{100, 900, 1500}
	var want datacenter.Vector
	for _, n := range zones {
		want = want.Add(g.DemandForEntities(n))
	}
	got := g.DemandForZones(zones)
	if math.Abs(got[datacenter.CPU]-want[datacenter.CPU]) > 1e-12 {
		t.Fatalf("DemandForZones = %+v, want %+v", got, want)
	}
}

func TestDemandNonNegativeProperty(t *testing.T) {
	g := NewGame("prop", GenreRTS)
	err := quick.Check(func(ns []float64) bool {
		zones := make([]float64, 0, len(ns))
		for _, n := range ns {
			if math.IsNaN(n) || math.IsInf(n, 0) {
				continue
			}
			zones = append(zones, math.Mod(n, 1e5))
		}
		d := g.DemandForZones(zones)
		return d[datacenter.CPU] >= 0 && d[datacenter.Memory] >= 0 && d[datacenter.ExtNetIn] >= 0 && d[datacenter.ExtNetOut] >= 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
