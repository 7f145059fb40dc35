package ecosystem

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
	"mmogdc/internal/xrand"
)

// TestMatcherInvariantsUnderRandomLoad drives the matcher with random
// request streams against random center configurations and checks the
// structural invariants after every operation:
//
//   - no center is ever allocated beyond its capacity;
//   - granted leases plus unmet demand cover at least the request
//     (never less than asked minus what was declared unmet);
//   - every lease respects the requester's latency bound;
//   - expiry is complete (allocations return to zero when everything
//     has lapsed).
func TestMatcherInvariantsUnderRandomLoad(t *testing.T) {
	rng := xrand.New(0xfeed)
	locations := []geo.Point{geo.London, geo.NewYork, geo.SanJose, geo.Sydney, geo.Chicago}

	for round := 0; round < 30; round++ {
		// Random ecosystem.
		nCenters := 1 + rng.Intn(5)
		centers := make([]*datacenter.Center, nCenters)
		for i := range centers {
			var bulk datacenter.Vector
			bulk[datacenter.CPU] = 0.1 + 0.5*rng.Float64()
			bulk[datacenter.Memory] = float64(rng.Intn(3))
			policy := datacenter.HostingPolicy{
				Name:     "rand",
				Bulk:     bulk,
				TimeBulk: time.Duration(30+rng.Intn(180)) * time.Minute,
			}
			centers[i] = datacenter.NewCenter(
				string(rune('A'+i)), locations[rng.Intn(len(locations))], 1+rng.Intn(6), policy)
		}
		m := NewMatcher(centers)
		now := time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)

		for step := 0; step < 60; step++ {
			origin := locations[rng.Intn(len(locations))]
			maxKm := math.Inf(1)
			if rng.Bool(0.4) {
				maxKm = 500 + 8000*rng.Float64()
			}
			var demand datacenter.Vector
			demand[datacenter.CPU] = 3 * rng.Float64()
			if rng.Bool(0.5) {
				demand[datacenter.Memory] = 4 * rng.Float64()
			}

			leases, unmet, _ := m.AllocateDetailed(nil, Request{
				Tag: "prop", Origin: origin, MaxDistanceKm: maxKm, Demand: demand,
			}, now)

			var granted datacenter.Vector
			for _, l := range leases {
				granted = granted.Add(l.Alloc)
				if d := geo.DistanceKm(origin, l.Center.Location); d > maxKm {
					t.Fatalf("round %d: lease at %.0f km violates %.0f km bound", round, d, maxKm)
				}
			}
			// granted + unmet >= demand (rounding may exceed demand).
			covered := granted.Add(unmet)
			for r := 0; r < int(datacenter.NumResources); r++ {
				if covered[r]+1e-9 < demand[r] {
					t.Fatalf("round %d: resource %v demand %v not covered by %v granted + %v unmet",
						round, datacenter.Resource(r), demand[r], granted[r], unmet[r])
				}
			}
			for _, c := range centers {
				if !c.Allocated().FitsWithin(c.Capacity()) {
					t.Fatalf("round %d: center %s over-allocated", round, c.Name)
				}
			}
			now = now.Add(time.Duration(1+rng.Intn(30)) * time.Minute)
			m.Expire(now)
		}

		// Everything lapses eventually.
		m.Expire(now.Add(100 * time.Hour))
		for _, c := range centers {
			if !c.Allocated().IsZero() {
				t.Fatalf("round %d: center %s retains allocation after global expiry", round, c.Name)
			}
		}
	}
}

// randomFaults is a stochastic GrantFaults injector for property
// testing: it rejects or trims grants at random.
type randomFaults struct{ r *xrand.Rand }

func (f randomFaults) GrantFault(string) (bool, float64) {
	if f.r.Bool(0.2) {
		return true, 0
	}
	if f.r.Bool(0.2) {
		return false, 0.25 + 0.5*f.r.Float64()
	}
	return false, 1
}

// TestMatcherInvariantsUnderRandomFaults repeats the random-load drive
// with a stochastic fault injector installed. Rejections and partial
// grants must never break the accounting: whatever the injector
// withholds has to reappear as unmet demand, capacity must stay
// respected, and the Outcome must reflect what actually happened.
func TestMatcherInvariantsUnderRandomFaults(t *testing.T) {
	rng := xrand.New(0xfa17)
	locations := []geo.Point{geo.London, geo.NewYork, geo.SanJose, geo.Sydney}

	sawRejection, sawPartial := false, false
	for round := 0; round < 30; round++ {
		nCenters := 1 + rng.Intn(4)
		centers := make([]*datacenter.Center, nCenters)
		for i := range centers {
			var bulk datacenter.Vector
			bulk[datacenter.CPU] = 0.1 + 0.5*rng.Float64()
			policy := datacenter.HostingPolicy{
				Name:     "rand",
				Bulk:     bulk,
				TimeBulk: time.Duration(30+rng.Intn(180)) * time.Minute,
			}
			centers[i] = datacenter.NewCenter(
				string(rune('A'+i)), locations[rng.Intn(len(locations))], 1+rng.Intn(6), policy)
		}
		m := NewMatcher(centers)
		m.SetFaultInjector(randomFaults{r: rng.Split(uint64(round) + 1)})
		now := time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)

		for step := 0; step < 40; step++ {
			var demand datacenter.Vector
			demand[datacenter.CPU] = 3 * rng.Float64()
			req := Request{
				Tag: "prop", Origin: locations[rng.Intn(len(locations))],
				MaxDistanceKm: math.Inf(1), Demand: demand,
			}
			if rng.Bool(0.2) && nCenters > 1 {
				req.Exclude = []string{centers[rng.Intn(nCenters)].Name}
			}

			leases, unmet, out := m.AllocateDetailed(nil, req, now)
			sawRejection = sawRejection || out.Rejections > 0
			sawPartial = sawPartial || out.PartialGrants > 0

			var granted datacenter.Vector
			for _, l := range leases {
				granted = granted.Add(l.Alloc)
				if excluded(req.Exclude, l.Center.Name) {
					t.Fatalf("round %d: lease from excluded center %s", round, l.Center.Name)
				}
			}
			covered := granted.Add(unmet)
			for r := 0; r < int(datacenter.NumResources); r++ {
				if covered[r]+1e-9 < demand[r] {
					t.Fatalf("round %d: resource %v demand %v not covered by %v granted + %v unmet under faults",
						round, datacenter.Resource(r), demand[r], granted[r], unmet[r])
				}
			}
			for _, c := range centers {
				if !c.Allocated().FitsWithin(c.Capacity()) {
					t.Fatalf("round %d: center %s over-allocated under faults", round, c.Name)
				}
			}
			now = now.Add(time.Duration(1+rng.Intn(30)) * time.Minute)
			m.Expire(now)
		}
	}
	if !sawRejection || !sawPartial {
		t.Fatalf("injector never fired (rejections seen: %v, partials seen: %v)", sawRejection, sawPartial)
	}
}
