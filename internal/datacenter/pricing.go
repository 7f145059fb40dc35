package datacenter

import "time"

// PriceTable is the per-resource price of one abstract unit for one
// hour, in arbitrary currency. Data centers charge for what they
// *allocate* (the bulk-rounded amounts, for the whole time bulk), not
// for what the game actually consumes — which is precisely why
// mis-fitted hosting policies cost game operators real money and why
// the over-allocation metric translates directly into operating cost.
type PriceTable Vector

// DefaultPrices is a plausible 2008-era hosting price point: CPU is
// the expensive resource, memory and bandwidth come cheaper per unit.
var DefaultPrices = PriceTable{
	CPU:       1.00, // one machine's CPU for one hour
	Memory:    0.10,
	ExtNetIn:  0.02,
	ExtNetOut: 0.15,
}

// LeaseCost returns the price of one lease: every allocated resource
// is billed for the lease's full duration at the per-unit-hour rates.
func (p PriceTable) LeaseCost(l *Lease) float64 {
	hours := l.Expires.Sub(l.Start).Hours()
	if hours <= 0 {
		return 0
	}
	var cost float64
	for r, units := range l.Alloc {
		cost += p[r] * units * hours
	}
	return cost
}

// AllocationCost returns the price of holding the given allocation for
// the given duration.
func (p PriceTable) AllocationCost(alloc Vector, d time.Duration) float64 {
	hours := d.Hours()
	if hours <= 0 {
		return 0
	}
	var cost float64
	for r, units := range alloc {
		cost += p[r] * units * hours
	}
	return cost
}

// TotalCost returns the cumulative price, at DefaultPrices, of every
// lease the center has granted (charged in full at grant time, since
// leases cannot be terminated early).
func (c *Center) TotalCost() float64 { return c.totalCost }

// TotalCostOf sums the accumulated lease costs across centers.
func TotalCostOf(centers []*Center) float64 {
	var sum float64
	for _, c := range centers {
		sum += c.TotalCost()
	}
	return sum
}
