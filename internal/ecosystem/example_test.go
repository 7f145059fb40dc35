package ecosystem_test

import (
	"fmt"
	"math"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
)

// Request–offer matching across hosters: the matcher filters by the
// game's latency tolerance, then prefers the finest-grained policy
// with the shortest reservation time.
func ExampleMatcher_AllocateDetailed() {
	hp3, _ := datacenter.PolicyByName("HP-3") // fine grain
	hp7, _ := datacenter.PolicyByName("HP-7") // coarse grain
	centers := []*datacenter.Center{
		datacenter.NewCenter("coarse-but-close", geo.London, 8, hp7),
		datacenter.NewCenter("fine-but-far", geo.NewYork, 8, hp3),
	}
	m := ecosystem.NewMatcher(centers)

	var demand datacenter.Vector
	demand[datacenter.CPU] = 0.4

	leases, unmet, _ := m.AllocateDetailed(nil, ecosystem.Request{
		Tag:           "world-3",
		Origin:        geo.London,
		MaxDistanceKm: math.Inf(1), // a latency-tolerant game
		Demand:        demand,
	}, time.Date(2008, 1, 1, 12, 0, 0, 0, time.UTC))

	fmt.Printf("served by %s, unmet: %v\n", leases[0].Center.Name, unmet.IsZero() == false)
	// Output: served by fine-but-far, unmet: false
}
