package datacenter

import (
	"testing"
	"time"

	"mmogdc/internal/geo"
)

func cpuVec(units float64) Vector {
	var v Vector
	v[CPU] = units
	return v
}

func TestReserveBasicLifecycle(t *testing.T) {
	c := NewCenter("dc", geo.London, 2, testPolicy())
	start := t0.Add(2 * time.Hour)
	l, err := c.Reserve(cpuVec(0.6), start, "evening")
	if err != nil {
		t.Fatal(err)
	}
	if l.Alloc[CPU] != 0.75 {
		t.Fatalf("reserved CPU = %v, want bulk-rounded 0.75", l.Alloc[CPU])
	}
	if len(c.reserved) != 1 {
		t.Fatalf("reservations = %d", len(c.reserved))
	}
	// Not yet active: the live view is untouched.
	if !c.Allocated().IsZero() {
		t.Fatal("reservation counted as live allocation")
	}
	// Advance past the window start: activation.
	c.Expire(start)
	if len(c.reserved) != 0 {
		t.Fatal("reservation not activated")
	}
	if c.Allocated()[CPU] != 0.75 {
		t.Fatalf("activated allocation = %v", c.Allocated()[CPU])
	}
	// And it expires like any lease.
	c.Expire(start.Add(time.Hour))
	if !c.Allocated().IsZero() {
		t.Fatal("activated reservation did not expire")
	}
}

func TestReserveRejectsPastWindow(t *testing.T) {
	c := NewCenter("dc", geo.London, 2, testPolicy())
	c.Expire(t0.Add(time.Hour))
	if _, err := c.Reserve(cpuVec(0.5), t0, "late"); err != ErrPastWindow {
		t.Fatalf("err = %v, want ErrPastWindow", err)
	}
}

func TestReserveRejectsEmptyRequest(t *testing.T) {
	c := NewCenter("dc", geo.London, 2, testPolicy())
	if _, err := c.Reserve(Vector{}, t0.Add(time.Hour), "x"); err == nil {
		t.Fatal("empty reservation should error")
	}
}

func TestReserveCapacityAcrossOverlappingReservations(t *testing.T) {
	c := NewCenter("dc", geo.London, 1, testPolicy()) // 1 CPU unit
	start := t0.Add(time.Hour)
	if _, err := c.Reserve(cpuVec(0.75), start, "a"); err != nil {
		t.Fatal(err)
	}
	// A second overlapping reservation of 0.5 would exceed 1 unit.
	if _, err := c.Reserve(cpuVec(0.5), start.Add(30*time.Minute), "b"); err != ErrInsufficient {
		t.Fatalf("overlapping over-booking allowed: %v", err)
	}
	// A disjoint window fits (policy time bulk is one hour).
	if _, err := c.Reserve(cpuVec(0.5), start.Add(time.Hour), "c"); err != nil {
		t.Fatalf("disjoint reservation rejected: %v", err)
	}
}

func TestReserveAccountsForLiveLeases(t *testing.T) {
	c := NewCenter("dc", geo.London, 1, testPolicy())
	// A live lease holding 0.75 until t0+1h.
	if _, err := c.Lease(cpuVec(0.75), t0, "live"); err != nil {
		t.Fatal(err)
	}
	// A reservation starting inside the live lease's window must see
	// its usage.
	if _, err := c.Reserve(cpuVec(0.5), t0.Add(30*time.Minute), "r"); err != ErrInsufficient {
		t.Fatalf("reservation ignored live lease: %v", err)
	}
	// After the live lease expires, the same reservation fits.
	if _, err := c.Reserve(cpuVec(0.5), t0.Add(time.Hour), "r2"); err != nil {
		t.Fatalf("post-expiry reservation rejected: %v", err)
	}
}

func TestLeaseSeesFutureReservations(t *testing.T) {
	c := NewCenter("dc", geo.London, 1, testPolicy())
	// Book the whole machine starting in 30 minutes.
	if _, err := c.Reserve(cpuVec(1.0), t0.Add(30*time.Minute), "r"); err != nil {
		t.Fatal(err)
	}
	// An immediate one-hour lease would collide with the booking.
	if _, err := c.Lease(cpuVec(0.5), t0, "now"); err != ErrInsufficient {
		t.Fatalf("lease ignored future reservation: %v", err)
	}
}

func TestReservationBilledAtGrant(t *testing.T) {
	c := NewCenter("dc", geo.London, 2, testPolicy())
	if _, err := c.Reserve(cpuVec(0.25), t0.Add(time.Hour), "r"); err != nil {
		t.Fatal(err)
	}
	want := 0.25 * 1.00 * 1.0 // one bulk for one hour at CPU price
	if got := c.TotalCost(); got != want {
		t.Fatalf("cost = %v, want %v", got, want)
	}
}

func TestStaleReservationDropped(t *testing.T) {
	c := NewCenter("dc", geo.London, 2, testPolicy())
	if _, err := c.Reserve(cpuVec(0.25), t0.Add(time.Hour), "r"); err != nil {
		t.Fatal(err)
	}
	// Jump far past the whole window: the reservation must not
	// activate retroactively.
	c.Expire(t0.Add(10 * time.Hour))
	if len(c.reserved) != 0 {
		t.Fatal("stale reservation kept")
	}
	if !c.Allocated().IsZero() {
		t.Fatal("stale reservation activated")
	}
}

func TestReservationPreemptsLaterLeaseDemand(t *testing.T) {
	// The scenario reservations exist for: book the evening peak in
	// the morning, then watch a competing immediate lease bounce.
	c := NewCenter("dc", geo.London, 1, testPolicy())
	evening := t0.Add(8 * time.Hour)
	if _, err := c.Reserve(cpuVec(1.0), evening, "peak"); err != nil {
		t.Fatal(err)
	}
	// The competing operator shows up just before the peak.
	c.Expire(evening.Add(-10 * time.Minute))
	if _, err := c.Lease(cpuVec(1.0), evening.Add(-10*time.Minute), "rival"); err != ErrInsufficient {
		t.Fatalf("rival lease overlapping the booking allowed: %v", err)
	}
	// At the window start the booking activates.
	c.Expire(evening)
	if c.Allocated()[CPU] != 1.0 {
		t.Fatalf("booking not active at its window: %v", c.Allocated())
	}
}
