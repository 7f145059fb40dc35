package datacenter

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/geo"
)

func TestLeaseCost(t *testing.T) {
	var alloc Vector
	alloc[CPU] = 2
	alloc[Memory] = 4
	l := &Lease{
		Alloc:   alloc,
		Start:   t0,
		Expires: t0.Add(3 * time.Hour),
	}
	got := DefaultPrices.LeaseCost(l)
	want := (2*1.00 + 4*0.10) * 3
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("LeaseCost = %v, want %v", got, want)
	}
}

func TestLeaseCostZeroDuration(t *testing.T) {
	l := &Lease{Alloc: Vector{1, 1, 1, 1}, Start: t0, Expires: t0}
	if DefaultPrices.LeaseCost(l) != 0 {
		t.Fatal("zero-duration lease should cost 0")
	}
}

func TestAllocationCost(t *testing.T) {
	var alloc Vector
	alloc[ExtNetOut] = 10
	got := DefaultPrices.AllocationCost(alloc, 2*time.Hour)
	if math.Abs(got-10*0.15*2) > 1e-9 {
		t.Fatalf("AllocationCost = %v", got)
	}
	if DefaultPrices.AllocationCost(alloc, -time.Hour) != 0 {
		t.Fatal("negative duration should cost 0")
	}
}

func TestCenterAccumulatesCost(t *testing.T) {
	c := NewCenter("dc", geo.London, 4, testPolicy())
	var req Vector
	req[CPU] = 0.6 // rounds to 0.75, held for 1 hour
	if _, err := c.Lease(req, t0, "z"); err != nil {
		t.Fatal(err)
	}
	want := 0.75 * 1.00 * 1.0
	if math.Abs(c.TotalCost()-want) > 1e-9 {
		t.Fatalf("TotalCost = %v, want %v", c.TotalCost(), want)
	}
	// A second lease adds to the bill; expiry does not refund.
	if _, err := c.Lease(req, t0, "z"); err != nil {
		t.Fatal(err)
	}
	c.Expire(t0.Add(2 * time.Hour))
	if math.Abs(c.TotalCost()-2*want) > 1e-9 {
		t.Fatalf("TotalCost after expiry = %v, want %v", c.TotalCost(), 2*want)
	}
}

func TestTotalCostOf(t *testing.T) {
	a := NewCenter("a", geo.London, 2, testPolicy())
	b := NewCenter("b", geo.London, 2, testPolicy())
	var req Vector
	req[CPU] = 0.25
	a.Lease(req, t0, "x")
	b.Lease(req, t0, "y")
	if got := TotalCostOf([]*Center{a, b}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("TotalCostOf = %v", got)
	}
}
