// Package geo models the geographic side of the MMOG ecosystem: the
// locations of data centers and player regions, great-circle distances
// between them, and the paper's five latency-tolerance classes
// (Section V-E), which translate a game's latency tolerance into a
// maximal player-to-server distance.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for great-circle
// distances.
const EarthRadiusKm = 6371.0

// Point is a geographic coordinate in degrees.
type Point struct {
	LatDeg float64
	LonDeg float64
}

// DistanceKm returns the great-circle (haversine) distance between two
// points in kilometres.
func DistanceKm(a, b Point) float64 {
	const degToRad = math.Pi / 180
	lat1 := a.LatDeg * degToRad
	lat2 := b.LatDeg * degToRad
	dLat := (b.LatDeg - a.LatDeg) * degToRad
	dLon := (b.LonDeg - a.LonDeg) * degToRad
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// LatencyClass is one of the paper's five maximal player-to-server
// distance classes (Section V-E).
type LatencyClass int

const (
	// SameLocation requires servers at the same location as the
	// players (d ≈ 0 km).
	SameLocation LatencyClass = iota
	// VeryClose allows servers within 1,000 km.
	VeryClose
	// Close allows servers within 2,000 km.
	Close
	// Far allows servers within 4,000 km.
	Far
	// VeryFar allows any server to serve any player.
	VeryFar
)

// AllLatencyClasses lists the classes in increasing tolerance order.
var AllLatencyClasses = []LatencyClass{SameLocation, VeryClose, Close, Far, VeryFar}

// sameLocationSlackKm treats co-located sites as "same location" even
// though their coordinates differ by a few kilometres.
const sameLocationSlackKm = 50

// MaxDistanceKm returns the maximal allowed player-to-server distance
// for the class. VeryFar returns +Inf.
func (c LatencyClass) MaxDistanceKm() float64 {
	switch c {
	case SameLocation:
		return sameLocationSlackKm
	case VeryClose:
		return 1000
	case Close:
		return 2000
	case Far:
		return 4000
	case VeryFar:
		return math.Inf(1)
	default:
		return math.Inf(1)
	}
}

// String implements fmt.Stringer with the paper's labels.
func (c LatencyClass) String() string {
	switch c {
	case SameLocation:
		return "Same location (d≈0km)"
	case VeryClose:
		return "Very close (d<1000km)"
	case Close:
		return "Close (d<2000km)"
	case Far:
		return "Far (d<4000km)"
	case VeryFar:
		return "Very far (d>4000km)"
	default:
		return fmt.Sprintf("LatencyClass(%d)", int(c))
	}
}

// RegionOf buckets a point into a named failure domain. Centers in the
// same region share power grids, backbone fiber, and weather, so the
// correlated-fault model (internal/faults) fails them together. The
// buckets cover the named locations below with continental granularity:
// "eu", "na-west", "na-east", "au". Anything outside those boxes falls
// back to a deterministic 30-degree grid cell ("cell(lat,lon)"), so the
// function is total and two centers at nearby coordinates land in the
// same domain.
func RegionOf(p Point) string {
	switch {
	case p.LatDeg > 35 && p.LonDeg >= -15 && p.LonDeg <= 45:
		return "eu"
	case p.LatDeg > 25 && p.LonDeg >= -130 && p.LonDeg < -100:
		return "na-west"
	case p.LatDeg > 25 && p.LonDeg >= -100 && p.LonDeg <= -60:
		return "na-east"
	case p.LatDeg < 0 && p.LonDeg > 100:
		return "au"
	default:
		return fmt.Sprintf("cell(%d,%d)",
			int(math.Floor(p.LatDeg/30)), int(math.Floor(p.LonDeg/30)))
	}
}

// Named well-known locations for the Table III experimental setup and
// the five RuneScape trace regions. Coordinates are approximate city
// centroids; only relative distances matter for the latency classes.
var (
	Helsinki  = Point{60.17, 24.94}
	Stockholm = Point{59.33, 18.07}
	London    = Point{51.51, -0.13}
	Amsterdam = Point{52.37, 4.90}
	SanJose   = Point{37.34, -121.89}
	Vancouver = Point{49.28, -123.12}
	Chicago   = Point{41.88, -87.63}
	NewYork   = Point{40.71, -74.01}
	Ashburn   = Point{39.04, -77.49}
	Montreal  = Point{45.50, -73.57}
	Sydney    = Point{-33.87, 151.21}
)
