package operator

import (
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
)

// TestLeasesEndByHolderClock: two games share one matcher of two
// centers, and one game's clock runs 40 ticks ahead of the other's, as
// two mmogd games observing at different rates do. A lease ends by its
// holder's clock alone: the leading game's observations must not end
// the lagging game's leases early, so neither game sees a failover it
// was never dealt, under a time bulk longer than the lead and under one
// shorter than it, and counts no under-allocation event: its first
// snapshot, before it held anything, is not scored.
func TestLeasesEndByHolderClock(t *testing.T) {
	const ticks, lead = 200, 40
	for _, bulk := range []time.Duration{360 * time.Minute, 30 * time.Minute} {
		var b datacenter.Vector
		b[datacenter.CPU] = 0.05
		p := datacenter.HostingPolicy{Name: "fine", Bulk: b, TimeBulk: bulk}
		m := ecosystem.NewMatcher([]*datacenter.Center{
			datacenter.NewCenter("london", geo.London, 10, p),
			datacenter.NewCenter("amsterdam", geo.Amsterdam, 10, p),
		})
		var ops [2]*Operator
		for i, name := range []string{"ahead", "behind"} {
			op, err := New(Config{
				Game: mmog.NewGame(name, mmog.GenreMMORPG), Origin: geo.London,
				Predictor: predict.NewLastValue(), Matcher: m,
			})
			if err != nil {
				t.Fatal(err)
			}
			ops[i] = op
		}
		loads := []float64{800, 600}
		for k := 0; k < ticks; k++ {
			for i, op := range ops {
				at := k
				if i == 0 {
					at += lead
				}
				if err := op.Observe(t0.Add(time.Duration(at)*2*time.Minute), loads); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, op := range ops {
			mt := op.Metrics()
			if mt.Failovers != 0 || mt.Events != 0 {
				t.Errorf("bulk %v, game %d: %d failovers and %d under-allocation events, want 0 and 0",
					bulk, i, mt.Failovers, mt.Events)
			}
		}
	}
}
