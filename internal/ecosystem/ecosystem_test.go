package ecosystem

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
)

var t0 = time.Date(2007, 8, 18, 0, 0, 0, 0, time.UTC)

func mkPolicy(name string, cpuBulk float64, timeBulk time.Duration) datacenter.HostingPolicy {
	var b datacenter.Vector
	b[datacenter.CPU] = cpuBulk
	return datacenter.HostingPolicy{Name: name, Bulk: b, TimeBulk: timeBulk}
}

func cpuReq(tag string, units float64, origin geo.Point, maxKm float64) Request {
	var d datacenter.Vector
	d[datacenter.CPU] = units
	return Request{Tag: tag, Origin: origin, MaxDistanceKm: maxKm, Demand: d}
}

func TestAllocatePrefersFinerGrain(t *testing.T) {
	coarse := datacenter.NewCenter("coarse", geo.London, 10, mkPolicy("c", 1.0, time.Hour))
	fine := datacenter.NewCenter("fine", geo.London, 10, mkPolicy("f", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{coarse, fine})
	leases, unmet, _ := m.AllocateDetailed(nil, cpuReq("z", 0.6, geo.London, math.Inf(1)), t0)
	if !unmet.IsZero() {
		t.Fatalf("unmet = %v", unmet)
	}
	if len(leases) != 1 || leases[0].Center != fine {
		t.Fatalf("allocated from %v, want fine center", leases[0].Center.Name)
	}
	if leases[0].Alloc[datacenter.CPU] != 0.75 {
		t.Fatalf("alloc = %v", leases[0].Alloc[datacenter.CPU])
	}
}

func TestAllocatePrefersShorterTimeBulkOnGrainTie(t *testing.T) {
	long := datacenter.NewCenter("long", geo.London, 10, mkPolicy("l", 0.25, 24*time.Hour))
	short := datacenter.NewCenter("short", geo.London, 10, mkPolicy("s", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{long, short})
	leases, _, _ := m.AllocateDetailed(nil, cpuReq("z", 0.5, geo.London, math.Inf(1)), t0)
	if leases[0].Center != short {
		t.Fatalf("allocated from %s, want short", leases[0].Center.Name)
	}
}

func TestAllocatePrefersCloserOnFullTie(t *testing.T) {
	far := datacenter.NewCenter("far", geo.Sydney, 10, mkPolicy("p", 0.25, time.Hour))
	near := datacenter.NewCenter("near", geo.Amsterdam, 10, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{far, near})
	leases, _, _ := m.AllocateDetailed(nil, cpuReq("z", 0.5, geo.London, math.Inf(1)), t0)
	if leases[0].Center != near {
		t.Fatalf("allocated from %s, want near", leases[0].Center.Name)
	}
}

func TestAllocateRespectsLatencyTolerance(t *testing.T) {
	sydney := datacenter.NewCenter("sydney", geo.Sydney, 10, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{sydney})
	// London players with a 2,000 km budget cannot use Sydney.
	_, unmet, _ := m.AllocateDetailed(nil, cpuReq("z", 0.5, geo.London, 2000), t0)
	if unmet.IsZero() {
		t.Fatal("distant center should be inadmissible")
	}
	// Unbounded tolerance admits it.
	_, unmet, _ = m.AllocateDetailed(nil, cpuReq("z", 0.5, geo.London, math.Inf(1)), t0)
	if !unmet.IsZero() {
		t.Fatal("unbounded tolerance should be served")
	}
}

func TestAllocateSplitsAcrossCenters(t *testing.T) {
	// First center can host 1 CPU unit, demand is 1.5: the rest must
	// spill to the second.
	small := datacenter.NewCenter("small", geo.London, 1, mkPolicy("s", 0.25, time.Hour))
	big := datacenter.NewCenter("big", geo.London, 10, mkPolicy("b", 0.5, time.Hour))
	m := NewMatcher([]*datacenter.Center{small, big})
	leases, unmet, _ := m.AllocateDetailed(nil, cpuReq("z", 1.5, geo.London, math.Inf(1)), t0)
	if !unmet.IsZero() {
		t.Fatalf("unmet = %v", unmet)
	}
	if len(leases) != 2 {
		t.Fatalf("got %d leases, want a split", len(leases))
	}
	if leases[0].Center != small || leases[0].Alloc[datacenter.CPU] != 1.0 {
		t.Fatalf("first lease = %s %v", leases[0].Center.Name, leases[0].Alloc)
	}
	if leases[1].Center != big || leases[1].Alloc[datacenter.CPU] != 0.5 {
		t.Fatalf("second lease = %s %v", leases[1].Center.Name, leases[1].Alloc)
	}
}

func TestAllocateReportsUnmet(t *testing.T) {
	tiny := datacenter.NewCenter("tiny", geo.London, 1, mkPolicy("t", 0.5, time.Hour))
	m := NewMatcher([]*datacenter.Center{tiny})
	leases, unmet, _ := m.AllocateDetailed(nil, cpuReq("z", 3, geo.London, math.Inf(1)), t0)
	if len(leases) != 1 {
		t.Fatalf("leases = %d", len(leases))
	}
	if got := unmet[datacenter.CPU]; got != 2 {
		t.Fatalf("unmet CPU = %v, want 2", got)
	}
}

func TestAllocateZeroDemand(t *testing.T) {
	m := NewMatcher(nil)
	leases, unmet, _ := m.AllocateDetailed(nil, cpuReq("z", 0, geo.London, math.Inf(1)), t0)
	if leases != nil || !unmet.IsZero() {
		t.Fatal("zero demand should be a no-op")
	}
}

func TestAllocateNegativeDemandClamped(t *testing.T) {
	c := datacenter.NewCenter("c", geo.London, 2, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{c})
	var d datacenter.Vector
	d[datacenter.CPU] = -1
	d[datacenter.Memory] = -2
	leases, unmet, _ := m.AllocateDetailed(nil, Request{Tag: "z", Origin: geo.London, MaxDistanceKm: math.Inf(1), Demand: d}, t0)
	if leases != nil || !unmet.IsZero() {
		t.Fatal("negative demand should be a no-op")
	}
}

func TestCPULeadsTheGrant(t *testing.T) {
	// A center whose CPU is exhausted must not serve network-only
	// slices of a CPU-bearing request.
	c := datacenter.NewCenter("c", geo.London, 1, mkPolicy("p", 1.0, time.Hour))
	m := NewMatcher([]*datacenter.Center{c})
	if _, unmet, _ := m.AllocateDetailed(nil, cpuReq("a", 1, geo.London, math.Inf(1)), t0); !unmet.IsZero() {
		t.Fatal("first request should fit")
	}
	var d datacenter.Vector
	d[datacenter.CPU] = 1
	d[datacenter.ExtNetOut] = 0.5
	_, unmet, _ := m.AllocateDetailed(nil, Request{Tag: "b", Origin: geo.London, MaxDistanceKm: math.Inf(1), Demand: d}, t0)
	if unmet[datacenter.CPU] != 1 || unmet[datacenter.ExtNetOut] != 0.5 {
		t.Fatalf("unmet = %v, want full demand unmet", unmet)
	}
}

func TestExpireAcrossCenters(t *testing.T) {
	a := datacenter.NewCenter("a", geo.London, 2, mkPolicy("p", 0.25, time.Hour))
	b := datacenter.NewCenter("b", geo.London, 2, mkPolicy("p", 0.25, 2*time.Hour))
	m := NewMatcher([]*datacenter.Center{a, b})
	m.AllocateDetailed(nil, cpuReq("z1", 0.5, geo.London, math.Inf(1)), t0)
	// Exhaust a's CPU so the second request lands on b.
	m.AllocateDetailed(nil, cpuReq("z2", 1.5, geo.London, math.Inf(1)), t0)
	m.AllocateDetailed(nil, cpuReq("z3", 1.0, geo.London, math.Inf(1)), t0)
	released := m.Expire(t0.Add(time.Hour))
	if released == 0 {
		t.Fatal("nothing expired after the short time bulk")
	}
	if got := a.Allocated()[datacenter.CPU]; got != 0 {
		t.Fatalf("center a still holds %v CPU", got)
	}
}

func TestCoarsePoliciesPenalized(t *testing.T) {
	// The Section V-E effect in miniature: with enough fine-grained
	// capacity elsewhere, a coarse-policy center ends the day unused.
	coarse := datacenter.NewCenter("coarse", geo.London, 10, mkPolicy("c", 1.11, time.Hour))
	fine := datacenter.NewCenter("fine", geo.NewYork, 10, mkPolicy("f", 0.22, time.Hour))
	m := NewMatcher([]*datacenter.Center{coarse, fine})
	for i := 0; i < 8; i++ {
		_, unmet, _ := m.AllocateDetailed(nil, cpuReq("z", 0.4, geo.London, math.Inf(1)), t0)
		if !unmet.IsZero() {
			t.Fatalf("request %d unmet", i)
		}
	}
	if got := coarse.Allocated()[datacenter.CPU]; got != 0 {
		t.Fatalf("coarse center used (%v CPU) despite fine alternative", got)
	}
	if fine.Allocated()[datacenter.CPU] == 0 {
		t.Fatal("fine center unused")
	}
}
