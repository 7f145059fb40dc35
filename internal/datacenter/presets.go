package datacenter

import (
	"fmt"
	"time"

	"mmogdc/internal/geo"
)

// Policies returns the paper's eleven hosting policies (Table IV).
// Bulk sizes are in abstract resource units; "n/a" entries are zero
// (unconstrained). HP-1 and HP-2 bundle network bandwidth with CPU;
// HP-3 through HP-7 sweep the CPU resource bulk at a fixed 3-hour time
// bulk; HP-5 and HP-8 through HP-11 sweep the time bulk at a fixed
// 0.37-unit CPU bulk.
func Policies() []HostingPolicy {
	mk := func(name string, cpu, mem, in, out float64, minutes int) HostingPolicy {
		var b Vector
		b[CPU] = cpu
		b[Memory] = mem
		b[ExtNetIn] = in
		b[ExtNetOut] = out
		return HostingPolicy{Name: name, Bulk: b, TimeBulk: time.Duration(minutes) * time.Minute}
	}
	return []HostingPolicy{
		mk("HP-1", 0.25, 0, 6, 0.33, 360),
		mk("HP-2", 0.25, 0, 4, 0.5, 360),
		mk("HP-3", 0.22, 2, 0, 0, 180),
		mk("HP-4", 0.28, 2, 0, 0, 180),
		mk("HP-5", 0.37, 2, 0, 0, 180),
		mk("HP-6", 0.56, 2, 0, 0, 180),
		mk("HP-7", 1.11, 2, 0, 0, 180),
		mk("HP-8", 0.37, 2, 0, 0, 360),
		mk("HP-9", 0.37, 2, 0, 0, 720),
		mk("HP-10", 0.37, 2, 0, 0, 1440),
		mk("HP-11", 0.37, 2, 0, 0, 2880),
	}
}

// OptimalPolicy returns the fine-grained reference policy the paper's
// Sections V-C through V-F call "optimal": resource bulks small enough
// that rounding waste is marginal, and a short time bulk so unneeded
// resources lapse quickly. It is the policy a data center would offer
// if it adapted fully to MMOG needs.
func OptimalPolicy() HostingPolicy {
	var b Vector
	b[CPU] = 0.05
	b[Memory] = 0.25
	b[ExtNetIn] = 0.25
	b[ExtNetOut] = 0.1
	return HostingPolicy{Name: "optimal", Bulk: b, TimeBulk: 60 * time.Minute}
}

// PolicyByName returns the Table IV policy with the given name.
func PolicyByName(name string) (HostingPolicy, error) {
	for _, p := range Policies() {
		if p.Name == name {
			return p, nil
		}
	}
	return HostingPolicy{}, fmt.Errorf("datacenter: unknown policy %q", name)
}

// SiteSpec describes one Table III location before policies are
// assigned.
type SiteSpec struct {
	// Name is the paper's location label.
	Name string
	// Location is the site's coordinates.
	Location geo.Point
	// Centers is the number of data centers at the location.
	Centers int
	// Machines is the total machine count at the location (shared
	// evenly between the centers, as Section V-B prescribes).
	Machines int
	// Continent groups sites for the Section V-E North-America-only
	// setup.
	Continent string
}

// TableIIISites returns the paper's experimental environment
// (Table III): 17 data centers on 10 sites across Europe, North
// America, and Australia, 166 machines in total.
func TableIIISites() []SiteSpec {
	return []SiteSpec{
		{Name: "Finland", Location: geo.Helsinki, Centers: 2, Machines: 8, Continent: "Europe"},
		{Name: "Sweden", Location: geo.Stockholm, Centers: 2, Machines: 8, Continent: "Europe"},
		{Name: "U.K.", Location: geo.London, Centers: 2, Machines: 20, Continent: "Europe"},
		{Name: "Netherlands", Location: geo.Amsterdam, Centers: 2, Machines: 15, Continent: "Europe"},
		{Name: "US West", Location: geo.SanJose, Centers: 2, Machines: 35, Continent: "North America"},
		{Name: "Canada West", Location: geo.Vancouver, Centers: 1, Machines: 15, Continent: "North America"},
		{Name: "US Central", Location: geo.Chicago, Centers: 1, Machines: 15, Continent: "North America"},
		{Name: "US East", Location: geo.NewYork, Centers: 2, Machines: 32, Continent: "North America"},
		{Name: "Canada East", Location: geo.Montreal, Centers: 1, Machines: 10, Continent: "North America"},
		{Name: "Australia", Location: geo.Sydney, Centers: 2, Machines: 8, Continent: "Australia"},
	}
}

// BuildCenters expands the site specs into centers, assigning policies
// round-robin per site the way Section V-B does for HP-1/HP-2: when a
// site hosts two centers they get policies[0] and policies[1] with
// half the machines each; single-center sites get policies[i%len].
// Machine counts that do not divide evenly give the remainder to the
// first center.
func BuildCenters(sites []SiteSpec, policies []HostingPolicy) []*Center {
	if len(policies) == 0 {
		policies = Policies()[:2]
	}
	var out []*Center
	rr := 0
	for _, s := range sites {
		n := s.Centers
		if n < 1 {
			n = 1
		}
		per := s.Machines / n
		rem := s.Machines % n
		for i := 0; i < n; i++ {
			m := per
			if i == 0 {
				m += rem
			}
			name := s.Name
			if n > 1 {
				name = fmt.Sprintf("%s (%d)", s.Name, i+1)
			}
			p := policies[rr%len(policies)]
			rr++
			out = append(out, NewCenter(name, s.Location, m, p))
		}
	}
	return out
}
