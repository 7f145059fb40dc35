package ecosystem

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
)

// rejectAll refuses every grant attempt.
type rejectAll struct{}

func (rejectAll) GrantFault(string) (bool, float64) { return true, 0 }

// halveAll trims every grant to half the attempted amount.
type halveAll struct{}

func (halveAll) GrantFault(string) (bool, float64) { return false, 0.5 }

func TestAllocateExcludesNamedCenters(t *testing.T) {
	a := datacenter.NewCenter("a", geo.London, 10, mkPolicy("p", 0.25, time.Hour))
	b := datacenter.NewCenter("b", geo.London, 10, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{a, b})
	req := cpuReq("z", 1.0, geo.London, math.Inf(1))
	req.Exclude = []string{"a"}
	leases, unmet, _ := m.AllocateDetailed(nil, req, t0)
	if !unmet.IsZero() {
		t.Fatalf("unmet %v with a non-excluded center free", unmet)
	}
	for _, l := range leases {
		if l.Center.Name == "a" {
			t.Fatal("lease granted by an excluded center")
		}
	}
	if a.Allocated()[datacenter.CPU] != 0 {
		t.Fatal("excluded center holds allocation")
	}

	// Excluding everything behaves like an empty ecosystem.
	req.Exclude = []string{"a", "b"}
	leases, unmet, _ = m.AllocateDetailed(nil, req, t0)
	if len(leases) != 0 || unmet[datacenter.CPU] < 1.0 {
		t.Fatalf("fully-excluded ecosystem still granted: %d leases, unmet %v", len(leases), unmet)
	}
}

func TestAllocateDetailedRejectAll(t *testing.T) {
	c := datacenter.NewCenter("dc", geo.London, 10, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{c})
	m.SetFaultInjector(rejectAll{})
	leases, unmet, out := m.AllocateDetailed(nil, cpuReq("z", 2.0, geo.London, math.Inf(1)), t0)
	if len(leases) != 0 {
		t.Fatalf("reject-all injector granted %d leases", len(leases))
	}
	if unmet[datacenter.CPU] < 2.0 {
		t.Fatalf("unmet %v, want the full demand", unmet)
	}
	if out.Rejections == 0 {
		t.Fatal("rejection not counted in the outcome")
	}
	if c.Allocated()[datacenter.CPU] != 0 {
		t.Fatal("rejected grant left allocation behind")
	}
}

func TestAllocateDetailedPartialGrants(t *testing.T) {
	c := datacenter.NewCenter("dc", geo.London, 40, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{c})
	m.SetFaultInjector(halveAll{})
	leases, unmet, out := m.AllocateDetailed(nil, cpuReq("z", 4.0, geo.London, math.Inf(1)), t0)
	if out.PartialGrants == 0 {
		t.Fatal("trimmed grant not counted in the outcome")
	}
	if out.Rejections != 0 {
		t.Fatalf("halving injector counted %d rejections", out.Rejections)
	}
	var granted float64
	for _, l := range leases {
		granted += l.Alloc[datacenter.CPU]
	}
	// The single pass grants roughly half and reports the rest unmet;
	// the accounting must still balance.
	if granted+unmet[datacenter.CPU]+1e-9 < 4.0 {
		t.Fatalf("granted %v + unmet %v < demand 4.0", granted, unmet[datacenter.CPU])
	}
	if granted >= 4.0 {
		t.Fatalf("halving injector granted the full demand (%v)", granted)
	}
}

func TestAllocateNoInjectorUnchanged(t *testing.T) {
	// Allocate (the non-detailed form) on a fault-free matcher must be
	// the baseline behavior: full grant, zero outcome.
	c := datacenter.NewCenter("dc", geo.London, 10, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{c})
	leases, unmet, out := m.AllocateDetailed(nil, cpuReq("z", 1.0, geo.London, math.Inf(1)), t0)
	if len(leases) == 0 || !unmet.IsZero() {
		t.Fatalf("baseline grant failed: %d leases, unmet %v", len(leases), unmet)
	}
	if out.Rejections != 0 || out.PartialGrants != 0 {
		t.Fatalf("fault-free outcome non-zero: %+v", out)
	}
}
