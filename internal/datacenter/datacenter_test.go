package datacenter

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"mmogdc/internal/geo"
)

var t0 = time.Date(2007, 8, 18, 0, 0, 0, 0, time.UTC)

func testPolicy() HostingPolicy {
	var b Vector
	b[CPU] = 0.25
	b[Memory] = 2
	return HostingPolicy{Name: "test", Bulk: b, TimeBulk: time.Hour}
}

func TestVectorOps(t *testing.T) {
	a := Vector{1, 2, 3, 4}
	b := Vector{4, 3, 2, 1}
	if a.Add(b) != (Vector{5, 5, 5, 5}) {
		t.Fatal("Add wrong")
	}
	if a.Sub(b) != (Vector{-3, -1, 1, 3}) {
		t.Fatal("Sub wrong")
	}
	if a.Scale(2) != (Vector{2, 4, 6, 8}) {
		t.Fatal("Scale wrong")
	}
	if a.Max(b) != (Vector{4, 3, 3, 4}) {
		t.Fatal("Max wrong")
	}
	if (Vector{-1, 2, -3, 0}).ClampNonNegative() != (Vector{0, 2, 0, 0}) {
		t.Fatal("Clamp wrong")
	}
	if !(Vector{}).IsZero() || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
	if !a.FitsWithin(a) || a.FitsWithin(Vector{0.5, 2, 3, 4}) {
		t.Fatal("FitsWithin wrong")
	}
}

func TestResourceStrings(t *testing.T) {
	want := map[Resource]string{
		CPU: "CPU", Memory: "Memory", ExtNetIn: "ExtNet[in]", ExtNetOut: "ExtNet[out]",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q", int(r), r.String())
		}
	}
	if Resource(9).String() != "Resource(9)" {
		t.Error("unknown resource label")
	}
}

func TestRoundUp(t *testing.T) {
	p := testPolicy()
	var req Vector
	req[CPU] = 0.3
	req[Memory] = 0.1
	req[ExtNetIn] = 0.7 // unconstrained
	got := p.RoundUp(req)
	if got[CPU] != 0.5 {
		t.Errorf("CPU rounded to %v, want 0.5", got[CPU])
	}
	if got[Memory] != 2 {
		t.Errorf("Memory rounded to %v, want 2 (one bulk)", got[Memory])
	}
	if got[ExtNetIn] != 0.7 {
		t.Errorf("unconstrained resource changed: %v", got[ExtNetIn])
	}
}

func TestRoundUpExactMultiple(t *testing.T) {
	p := testPolicy()
	var req Vector
	req[CPU] = 0.5
	if got := p.RoundUp(req); got[CPU] != 0.5 {
		t.Fatalf("exact multiple re-rounded: %v", got[CPU])
	}
}

func TestRoundUpNegativeAndZero(t *testing.T) {
	p := testPolicy()
	var req Vector
	req[CPU] = -3
	got := p.RoundUp(req)
	if got[CPU] != 0 {
		t.Fatalf("negative request should round to 0, got %v", got[CPU])
	}
	if !p.RoundUp(Vector{}).IsZero() {
		t.Fatal("zero request should stay zero")
	}
}

func TestRoundUpProperty(t *testing.T) {
	p := testPolicy()
	err := quick.Check(func(cpu, mem float64) bool {
		var req Vector
		req[CPU] = math.Abs(math.Mod(cpu, 100))
		req[Memory] = math.Abs(math.Mod(mem, 100))
		got := p.RoundUp(req)
		// Rounded >= requested, and within one bulk above.
		if got[CPU] < req[CPU]-1e-9 || got[CPU] > req[CPU]+0.25+1e-9 {
			return false
		}
		if got[Memory] < req[Memory]-1e-9 || got[Memory] > req[Memory]+2+1e-9 {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGrain(t *testing.T) {
	p := testPolicy()
	if p.Grain() != 0.25 {
		t.Fatalf("Grain = %v", p.Grain())
	}
	noCPU := HostingPolicy{Name: "x"}
	if !math.IsInf(noCPU.Grain(), 1) {
		t.Fatal("policy without CPU bulk should sort coarsest")
	}
}

func TestCenterLeaseLifecycle(t *testing.T) {
	c := NewCenter("dc", geo.London, 4, testPolicy())
	wantCap := PerMachineCapacity.Scale(4)
	if c.Capacity() != wantCap {
		t.Fatalf("capacity = %v", c.Capacity())
	}
	var req Vector
	req[CPU] = 0.6
	l, err := c.Lease(req, t0, "zone1")
	if err != nil {
		t.Fatal(err)
	}
	if l.Alloc[CPU] != 0.75 {
		t.Fatalf("leased CPU = %v, want 0.75", l.Alloc[CPU])
	}
	if !l.Active(t0) || !l.Active(t0.Add(59*time.Minute)) {
		t.Fatal("lease should be active within the hour")
	}
	if l.Active(t0.Add(time.Hour)) {
		t.Fatal("lease should end at expiry")
	}
	if c.Allocated()[CPU] != 0.75 {
		t.Fatalf("allocated = %v", c.Allocated())
	}
	if got := c.Free()[CPU]; got != 4-0.75 {
		t.Fatalf("free CPU = %v", got)
	}
	// Expiry releases.
	if n := c.Expire(t0.Add(30 * time.Minute)); n != 0 {
		t.Fatalf("early expire released %d leases", n)
	}
	if n := c.Expire(t0.Add(time.Hour)); n != 1 {
		t.Fatalf("expire released %d leases, want 1", n)
	}
	if !c.Allocated().IsZero() {
		t.Fatalf("allocated after expiry = %v", c.Allocated())
	}
	if c.ActiveLeases() != 0 {
		t.Fatal("lease list not cleaned")
	}
}

func TestCenterLeaseInsufficient(t *testing.T) {
	c := NewCenter("dc", geo.London, 1, testPolicy())
	var req Vector
	req[CPU] = 0.9
	if _, err := c.Lease(req, t0, "a"); err != nil {
		t.Fatal(err)
	}
	// 0.9 rounds to 1.0: the machine is full.
	if _, err := c.Lease(req, t0, "b"); err != ErrInsufficient {
		t.Fatalf("expected ErrInsufficient, got %v", err)
	}
}

func TestCenterLeaseEmptyRequest(t *testing.T) {
	c := NewCenter("dc", geo.London, 1, testPolicy())
	if _, err := c.Lease(Vector{}, t0, "x"); err == nil {
		t.Fatal("empty request should error")
	}
}

func TestCenterNeverOverAllocates(t *testing.T) {
	c := NewCenter("dc", geo.London, 2, testPolicy())
	now := t0
	issued := 0
	for i := 0; i < 100; i++ {
		var req Vector
		req[CPU] = 0.3
		if _, err := c.Lease(req, now, "z"); err == nil {
			issued++
		}
		if !c.Allocated().FitsWithin(c.Capacity()) {
			t.Fatalf("over-allocated at iteration %d: %v > %v", i, c.Allocated(), c.Capacity())
		}
	}
	// 2 machines / 0.5 units per lease = 4 leases maximum.
	if issued != 4 {
		t.Fatalf("issued %d leases, want 4", issued)
	}
}

func TestPoliciesTableIV(t *testing.T) {
	ps := Policies()
	if len(ps) != 11 {
		t.Fatalf("want 11 policies, got %d", len(ps))
	}
	cases := []struct {
		name    string
		cpu     float64
		minutes float64
	}{
		{"HP-1", 0.25, 360},
		{"HP-3", 0.22, 180},
		{"HP-7", 1.11, 180},
		{"HP-11", 0.37, 2880},
	}
	for _, c := range cases {
		p, err := PolicyByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Bulk[CPU] != c.cpu {
			t.Errorf("%s CPU bulk = %v, want %v", c.name, p.Bulk[CPU], c.cpu)
		}
		if p.TimeBulk.Minutes() != c.minutes {
			t.Errorf("%s time bulk = %v min, want %v", c.name, p.TimeBulk.Minutes(), c.minutes)
		}
	}
	// HP-1/2 bundle network, HP-3..11 do not.
	hp1, _ := PolicyByName("HP-1")
	if hp1.Bulk[ExtNetIn] != 6 || hp1.Bulk[ExtNetOut] != 0.33 {
		t.Errorf("HP-1 network bulks = %v/%v", hp1.Bulk[ExtNetIn], hp1.Bulk[ExtNetOut])
	}
	hp5, _ := PolicyByName("HP-5")
	if hp5.Bulk[ExtNetIn] != 0 || hp5.Bulk[ExtNetOut] != 0 {
		t.Error("HP-5 should not constrain network")
	}
	if _, err := PolicyByName("HP-99"); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestTableIIISites(t *testing.T) {
	sites := TableIIISites()
	totalMachines, totalCenters := 0, 0
	for _, s := range sites {
		totalMachines += s.Machines
		totalCenters += s.Centers
	}
	if totalMachines != 166 {
		t.Errorf("total machines = %d, want 166", totalMachines)
	}
	if totalCenters != 17 {
		t.Errorf("total centers = %d, want 17", totalCenters)
	}
	continents := map[string]bool{}
	for _, s := range sites {
		continents[s.Continent] = true
	}
	for _, want := range []string{"Europe", "North America", "Australia"} {
		if !continents[want] {
			t.Errorf("missing continent %s", want)
		}
	}
}

func TestBuildCenters(t *testing.T) {
	centers := BuildCenters(TableIIISites(), Policies()[:2])
	if len(centers) != 17 {
		t.Fatalf("built %d centers, want 17", len(centers))
	}
	machines := 0
	for _, c := range centers {
		machines += c.Machines
	}
	if machines != 166 {
		t.Fatalf("total machines = %d", machines)
	}
	// Two-center sites must split machines and alternate policies.
	byName := map[string]*Center{}
	for _, c := range centers {
		byName[c.Name] = c
	}
	uk1, uk2 := byName["U.K. (1)"], byName["U.K. (2)"]
	if uk1 == nil || uk2 == nil {
		t.Fatal("UK centers missing")
	}
	if uk1.Machines+uk2.Machines != 20 {
		t.Fatalf("UK machines = %d + %d", uk1.Machines, uk2.Machines)
	}
	if uk1.Policy.Name == uk2.Policy.Name {
		t.Fatal("same-site centers should alternate policies")
	}
}

func TestBuildCentersOddSplit(t *testing.T) {
	sites := []SiteSpec{{Name: "X", Location: geo.London, Centers: 2, Machines: 15}}
	centers := BuildCenters(sites, Policies()[:2])
	if centers[0].Machines != 8 || centers[1].Machines != 7 {
		t.Fatalf("odd split = %d/%d, want 8/7", centers[0].Machines, centers[1].Machines)
	}
}

func TestBuildCentersDefaultPolicies(t *testing.T) {
	centers := BuildCenters(TableIIISites()[:1], nil)
	if len(centers) != 2 {
		t.Fatal("default build failed")
	}
	if centers[0].Policy.Name != "HP-1" || centers[1].Policy.Name != "HP-2" {
		t.Fatalf("default policies = %s/%s", centers[0].Policy.Name, centers[1].Policy.Name)
	}
}

func TestFailAndRecover(t *testing.T) {
	c := NewCenter("dc", geo.London, 4, testPolicy())
	var req Vector
	req[CPU] = 0.5
	l, err := c.Lease(req, t0, "z")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reserve(req, t0.Add(2*time.Hour), "r"); err != nil {
		t.Fatal(err)
	}
	dropped := c.Fail()
	if len(dropped) != 2 {
		t.Fatalf("dropped = %d, want lease + reservation", len(dropped))
	}
	if l.Active(t0.Add(time.Minute)) {
		t.Fatal("lease survived the failure")
	}
	if !c.Allocated().IsZero() || len(c.reserved) != 0 {
		t.Fatal("failed center retains state")
	}
	if !c.Offline() {
		t.Fatal("center not marked offline")
	}
	if _, err := c.Lease(req, t0.Add(time.Minute), "z"); err != ErrOffline {
		t.Fatalf("offline lease err = %v", err)
	}
	if _, err := c.Reserve(req, t0.Add(3*time.Hour), "r"); err != ErrOffline {
		t.Fatalf("offline reserve err = %v", err)
	}
	c.Recover()
	if c.Offline() {
		t.Fatal("center still offline after recovery")
	}
	if _, err := c.Lease(req, t0.Add(2*time.Minute), "z"); err != nil {
		t.Fatalf("post-recovery lease failed: %v", err)
	}
}

func TestOverlappingFailuresRefcounted(t *testing.T) {
	// Two overlapping failure windows: the center must stay offline
	// until BOTH have recovered. Before refcounting, the first Recover
	// flipped the center back online mid-outage.
	c := NewCenter("dc", geo.London, 4, testPolicy())
	var req Vector
	req[CPU] = 0.5
	if _, err := c.Lease(req, t0, "z"); err != nil {
		t.Fatal(err)
	}
	dropped := c.Fail()
	if len(dropped) != 1 {
		t.Fatalf("first failure dropped %d leases, want 1", len(dropped))
	}
	if nested := c.Fail(); nested != nil {
		t.Fatalf("nested failure dropped %d leases, want none (already dark)", len(nested))
	}
	c.Recover()
	if !c.Offline() {
		t.Fatal("center revived while the outer failure window is still open")
	}
	if c.AvailableFraction() != 0 {
		t.Fatalf("offline center reports %v available", c.AvailableFraction())
	}
	c.Recover()
	if c.Offline() {
		t.Fatal("center still offline after both windows recovered")
	}
	// A stray Recover on a healthy center must not underflow.
	c.Recover()
	if c.Offline() {
		t.Fatal("extra Recover corrupted the failure state")
	}
}

func TestDegradeShedsNewestFirst(t *testing.T) {
	c := NewCenter("dc", geo.London, 4, testPolicy())
	var req Vector
	req[CPU] = 1.0
	old, err := c.Lease(req, t0, "old")
	if err != nil {
		t.Fatal(err)
	}
	mid, err := c.Lease(req, t0, "mid")
	if err != nil {
		t.Fatal(err)
	}
	newest, err := c.Lease(req, t0, "new")
	if err != nil {
		t.Fatal(err)
	}
	// Losing half the machines leaves room for only two leases: the
	// newest is shed, the older two survive.
	shed := c.Degrade(0.5)
	if len(shed) != 1 || shed[0] != newest {
		t.Fatalf("degrade shed %d leases, want the newest only", len(shed))
	}
	if !old.Active(t0.Add(time.Minute)) || !mid.Active(t0.Add(time.Minute)) {
		t.Fatal("degradation shed an older lease")
	}
	if got := c.AvailableFraction(); got != 0.5 {
		t.Fatalf("available fraction = %v, want 0.5", got)
	}
	if got := c.EffectiveCapacity()[CPU]; got != 2 {
		t.Fatalf("effective capacity = %v, want 2", got)
	}
	for r, v := range c.Free() {
		if v < 0 {
			t.Fatalf("negative free %v for resource %v under degradation", v, Resource(r))
		}
	}
	if !c.Allocated().FitsWithin(c.EffectiveCapacity()) {
		t.Fatal("degraded center over-committed")
	}
	c.Restore(0.5)
	if got := c.AvailableFraction(); got != 1 {
		t.Fatalf("available fraction after restore = %v, want 1", got)
	}
	if got := c.Free()[CPU]; got != 2 {
		t.Fatalf("free CPU after restore = %v, want 2 (two leases still held)", got)
	}
}

func TestDegradeComposes(t *testing.T) {
	c := NewCenter("dc", geo.London, 10, testPolicy())
	c.Degrade(0.3)
	c.Degrade(0.3)
	if got := c.AvailableFraction(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("stacked degradations: available = %v, want 0.4", got)
	}
	c.Restore(0.3)
	if got := c.AvailableFraction(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("after first restore: available = %v, want 0.7", got)
	}
	c.Restore(0.3)
	if got := c.AvailableFraction(); got != 1 {
		t.Fatalf("after full restore: available = %v, want exactly 1", got)
	}

	// Raw-sum semantics: stacked degradations may exceed the whole
	// center; each Restore gives back exactly what its Degrade took.
	c.Degrade(0.8)
	c.Degrade(0.8)
	if got := c.AvailableFraction(); got != 0 {
		t.Fatalf("over-degraded center: available = %v, want 0", got)
	}
	c.Restore(0.8)
	if got := c.AvailableFraction(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("partial restore of over-degraded center: available = %v, want 0.2", got)
	}
	c.Restore(0.8)
	if got := c.AvailableFraction(); got != 1 {
		t.Fatalf("final restore: available = %v, want exactly 1", got)
	}
}

func TestFailDominatesDegrade(t *testing.T) {
	c := NewCenter("dc", geo.London, 4, testPolicy())
	c.Degrade(0.25)
	c.Fail()
	if got := c.AvailableFraction(); got != 0 {
		t.Fatalf("failed center reports %v available", got)
	}
	if !c.EffectiveCapacity().IsZero() {
		t.Fatalf("failed center reports effective capacity %v", c.EffectiveCapacity())
	}
	c.Recover()
	if got := c.AvailableFraction(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("recovered center: available = %v, want the standing degradation 0.75", got)
	}
	c.Restore(0.25)
	if got := c.AvailableFraction(); got != 1 {
		t.Fatalf("fully restored: available = %v", got)
	}
}
