package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceZero(t *testing.T) {
	if d := DistanceKm(London, London); d != 0 {
		t.Fatalf("distance of a point to itself = %v", d)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	err := quick.Check(func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := Point{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		d1 := DistanceKm(a, b)
		d2 := DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b     Point
		wantKm   float64
		tolerKm  float64
		pairName string
	}{
		{London, Amsterdam, 358, 15, "London-Amsterdam"},
		{NewYork, Point{34.05, -118.24}, 3936, 50, "NewYork-LosAngeles"},
		{Helsinki, Stockholm, 396, 15, "Helsinki-Stockholm"},
		{Sydney, Point{-37.81, 144.96}, 714, 20, "Sydney-Melbourne"},
		{London, Sydney, 16994, 150, "London-Sydney"},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.tolerKm {
			t.Errorf("%s: got %.0f km, want %.0f±%.0f", c.pairName, got, c.wantKm, c.tolerKm)
		}
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	pts := []Point{London, NewYork, Sydney, Helsinki, SanJose, Montreal}
	for _, a := range pts {
		for _, b := range pts {
			for _, c := range pts {
				ab := DistanceKm(a, b)
				bc := DistanceKm(b, c)
				ac := DistanceKm(a, c)
				if ac > ab+bc+1e-6 {
					t.Fatalf("triangle inequality violated: d(%v,%v)=%v > %v+%v", a, c, ac, ab, bc)
				}
			}
		}
	}
}

func TestLatencyClassThresholds(t *testing.T) {
	cases := []struct {
		d    float64
		want LatencyClass
	}{
		{0, SameLocation},
		{49, SameLocation},
		{51, VeryClose},
		{999, VeryClose},
		{1000, VeryClose}, // boundaries are inclusive
		{1001, Close},
		{1999, Close},
		{2000, Close},
		{2001, Far},
		{3999, Far},
		{4000, Far},
		{4001, VeryFar},
		{20000, VeryFar},
	}
	// want is the tightest class whose maximal distance admits d.
	for _, c := range cases {
		if c.d > c.want.MaxDistanceKm() || c.want > SameLocation && c.d <= (c.want-1).MaxDistanceKm() {
			t.Errorf("%v km is not the tightest fit of %v", c.d, c.want)
		}
	}
}

func TestAdmitsMonotonicity(t *testing.T) {
	// A looser class must admit everything a tighter class admits.
	distances := []float64{0, 10, 100, 999, 1500, 3000, 8000}
	for i := 0; i+1 < len(AllLatencyClasses); i++ {
		tight, loose := AllLatencyClasses[i], AllLatencyClasses[i+1]
		for _, d := range distances {
			if d <= tight.MaxDistanceKm() && d > loose.MaxDistanceKm() {
				t.Errorf("%v admits %v km but %v does not", tight, d, loose)
			}
		}
	}
}

func TestVeryFarAdmitsEverything(t *testing.T) {
	for _, d := range []float64{0, 1, 1e4, 1e6, math.MaxFloat64} {
		if d > VeryFar.MaxDistanceKm() {
			t.Fatalf("VeryFar rejected distance %v", d)
		}
	}
}

func TestLatencyClassStrings(t *testing.T) {
	for _, c := range AllLatencyClasses {
		if c.String() == "" {
			t.Errorf("class %d has empty String()", int(c))
		}
	}
	if got := LatencyClass(99).String(); got != "LatencyClass(99)" {
		t.Errorf("unknown class String() = %q", got)
	}
}

func TestRegionOfBucketsNamedLocations(t *testing.T) {
	cases := []struct {
		p    Point
		want string
	}{
		{Helsinki, "eu"}, {Stockholm, "eu"}, {London, "eu"}, {Amsterdam, "eu"},
		{SanJose, "na-west"}, {Point{47.61, -122.33}, "na-west"}, {Vancouver, "na-west"}, {Point{34.05, -118.24}, "na-west"},
		{Chicago, "na-east"}, {NewYork, "na-east"}, {Ashburn, "na-east"},
		{Point{43.65, -79.38}, "na-east"}, {Montreal, "na-east"},
		{Sydney, "au"}, {Point{-37.81, 144.96}, "au"},
	}
	for _, c := range cases {
		if got := RegionOf(c.p); got != c.want {
			t.Errorf("RegionOf(%+v) = %q, want %q", c.p, got, c.want)
		}
	}
	// Off-grid points fall into deterministic grid cells, never panic.
	odd := Point{-50.0, -70.0} // Patagonia
	if got := RegionOf(odd); got != RegionOf(odd) || got == "" {
		t.Errorf("RegionOf grid fallback unstable or empty: %q", got)
	}
	if RegionOf(Point{-50, -70}) == RegionOf(Point{10, 70}) {
		t.Error("distant grid cells collide")
	}
}
