package datacenter_test

import (
	"fmt"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
)

// Leasing resources from a data center under a hosting policy: the
// request is rounded up to whole bulks and held for the time bulk.
func ExampleCenter_Lease() {
	policy, _ := datacenter.PolicyByName("HP-3") // 0.22 CPU bulk, 3h
	center := datacenter.NewCenter("Amsterdam", geo.Amsterdam, 4, policy)

	var req datacenter.Vector
	req[datacenter.CPU] = 0.5 // needs three 0.22-unit bulks

	now := time.Date(2008, 1, 1, 18, 0, 0, 0, time.UTC)
	lease, err := center.Lease(req, now, "my-game/world-12")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("allocated %.2f CPU units until %s\n",
		lease.Alloc[datacenter.CPU], lease.Expires.Format("15:04"))
	// Output: allocated 0.66 CPU units until 21:00
}

// Booking future capacity with an advance reservation (the second
// service model of the paper's Section II-B).
func ExampleCenter_Reserve() {
	policy, _ := datacenter.PolicyByName("HP-5")
	center := datacenter.NewCenter("London", geo.London, 2, policy)

	var peak datacenter.Vector
	peak[datacenter.CPU] = 1.48 // four 0.37-unit bulks

	morning := time.Date(2008, 1, 1, 10, 0, 0, 0, time.UTC)
	evening := time.Date(2008, 1, 1, 19, 0, 0, 0, time.UTC)
	center.Expire(morning) // the operator's clock
	booking, err := center.Reserve(peak, evening, "evening-peak")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("booked %.2f CPU units from %s, live allocation %.1f\n",
		booking.Alloc[datacenter.CPU], booking.Start.Format("15:04"),
		center.Allocated()[datacenter.CPU])

	center.Expire(evening) // the window begins: the booking activates
	fmt.Printf("at 19:00: live allocation %.2f CPU units\n",
		center.Allocated()[datacenter.CPU])
	// Output:
	// booked 1.48 CPU units from 19:00, live allocation 0.0
	// at 19:00: live allocation 1.48 CPU units
}
