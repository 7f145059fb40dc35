package provision

import (
	"testing"

	"mmogdc/internal/datacenter"
)

// TestScoreTick pins Equations (1) and (2). Each row lists one
// allocation and one load per requester; the test sums them, and each
// requester's own shortfall, as core.Run's reduce sums its zones.
func TestScoreTick(t *testing.T) {
	all := [datacenter.NumResources]bool{true, true, true, true}
	for _, tc := range []struct {
		name        string
		alloc, load []datacenter.Vector
		want        Score
	}{
		{
			name:  "one requester's surplus does not cover another's deficit",
			alloc: []datacenter.Vector{{3, 1, 1, 1}, {1, 1, 1, 1}},
			load:  []datacenter.Vector{{1, 1, 1, 1}, {3, 1, 1, 1}},
			// α = λ, so Ω−100 is 0, but the second requester is 2 short of
			// M = 4 machines.
			want: Score{Loaded: all, Under: datacenter.Vector{-50}, Worst: -50, Event: true},
		},
		{
			name:  "M is at least one machine",
			alloc: []datacenter.Vector{{0.25, 1, 1, 1}},
			load:  []datacenter.Vector{{0.5, 1, 1, 1}},
			want: Score{Over: datacenter.Vector{-50}, Loaded: all,
				Under: datacenter.Vector{-25}, Worst: -25, Event: true},
		},
		{
			name:  "ExtNetOut alone short by more than 1% of M",
			alloc: []datacenter.Vector{{4, 1, 1, 0.4375}},
			load:  []datacenter.Vector{{2, 1, 1, 0.5}},
			want: Score{Over: datacenter.Vector{100, 0, 0, -12.5}, Loaded: all,
				Under: datacenter.Vector{0, 0, 0, -1.5625}, Worst: -1.5625, Event: true},
		},
		{
			name:  "ExtNetOut short by exactly 1% of M",
			alloc: []datacenter.Vector{{4, 1, 1, 0}},
			load:  []datacenter.Vector{{4, 1, 1, 0.04}},
			want: Score{Over: datacenter.Vector{0, 0, 0, -100}, Loaded: all,
				Under: datacenter.Vector{0, 0, 0, -1}, Worst: -1},
		},
		{
			name:  "a resource without load has no Ω",
			alloc: []datacenter.Vector{{2, 1, 0, 0}},
			load:  []datacenter.Vector{{1, 0, 0, 0}},
			want:  Score{Over: datacenter.Vector{100}, Loaded: [datacenter.NumResources]bool{true}},
		},
	} {
		var alloc, load, shortfall datacenter.Vector
		for i, a := range tc.alloc {
			l := tc.load[i]
			alloc, load = alloc.Add(a), load.Add(l)
			for r := range shortfall {
				if d := a[r] - l[r]; d < 0 {
					shortfall[r] += d
				}
			}
		}
		if got := ScoreTick(alloc, load, shortfall); got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestMachines pins M in Equation 2: the allocation's CPU units rounded
// up to whole machines, at least one.
func TestMachines(t *testing.T) {
	for _, tc := range []struct{ alloc, want float64 }{
		{0, 1}, {0.4, 1}, {1, 1}, {2.01, 3},
	} {
		if got := Machines(tc.alloc); got != tc.want {
			t.Errorf("Machines(%v) = %v, want %v", tc.alloc, got, tc.want)
		}
	}
}
