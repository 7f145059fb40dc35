package operator

import (
	"math"
	"strconv"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
	"mmogdc/internal/xrand"
)

// grantDice rejects one grant attempt in eight and trims another one in
// eight to 25–75%, from a seeded stream.
type grantDice struct{ r *xrand.Rand }

func (g grantDice) GrantFault(string) (reject bool, frac float64) {
	switch g.r.Intn(8) {
	case 0:
		return true, 0
	case 1:
		return false, 0.25 + 0.5*g.r.Float64()
	}
	return false, 1
}

// walkGame is one game of the conservation walk: its operator, the
// snapshots it took, and its own clock.
type walkGame struct {
	cfg   Config
	op    *Operator
	snaps [][]byte
	tick  int
	lag   int // ticks ahead of t0
}

func (g *walkGame) now() time.Time {
	return t0.Add(time.Duration(g.tick+g.lag) * 2 * time.Minute)
}

// TestLeasesConservedAcrossCrashAndDrain is a seeded random walk of two
// games, each on its own clock (up to 20 ticks apart), on one matcher
// of three centers that rejects and trims grants. Its operations:
// observes of random loads with dropouts, center outages, recoveries,
// degradations and restorations, snapshots, a crash of one game
// restored over the same matcher from its latest or an older snapshot
// (so leases go lost, get adopted and turn up orphaned), and a drain of
// one game followed by a fresh operator. After every operation each
// center's allocation fits its effective capacity and equals its live
// leases' sum within 1e-9 per component, and every lease ever granted
// is either live — in its center's book and in exactly one operator's
// book — or released, in no center's book, never to return.
func TestLeasesConservedAcrossCrashAndDrain(t *testing.T) {
	var adopted, lost, orphaned, shed, drained int
	for seed := uint64(1); seed <= 24; seed++ {
		r := xrand.New(seed)
		var centers []*datacenter.Center
		for i, bulk := range []time.Duration{10 * time.Minute, 30 * time.Minute, time.Hour} {
			p := datacenter.HostingPolicy{Name: "p" + strconv.Itoa(i),
				Bulk: datacenter.Vector{0.25 * float64(1+i)}, TimeBulk: bulk}
			centers = append(centers, datacenter.NewCenter("dc"+strconv.Itoa(i), geo.London, 2+r.Intn(4), p))
		}
		m := ecosystem.NewMatcher(centers)
		m.SetFaultInjector(grantDice{xrand.New(seed ^ 0x9a17)})
		var games [2]*walkGame
		for i := range games {
			cfg := Config{
				Game:      mmog.NewGame("game"+strconv.Itoa(i), mmog.GenreMMORPG),
				Origin:    geo.London,
				Predictor: predict.NewLastValue(),
				Matcher:   m,
			}
			op, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			games[i] = &walkGame{cfg: cfg, op: op}
		}
		games[1].lag = r.Intn(41) - 20
		failed := make([]int, len(centers))
		degraded := make([][]float64, len(centers))

		// live holds the leases last seen live, gone the ones seen
		// released.
		live := map[*datacenter.Lease]bool{}
		gone := map[*datacenter.Lease]bool{}
		check := func(op int, what string) {
			t.Helper()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d op %d (%s): "+format, append([]any{seed, op, what}, args...)...)
			}
			inCenter := map[*datacenter.Lease]bool{}
			for _, c := range centers {
				var sum datacenter.Vector
				for _, l := range c.Leases() {
					if l.Released() || l.Center != c || gone[l] {
						fail("%s holds a lease released %v, of %v, seen released before %v",
							c.Name, l.Released(), l.Center.Name, gone[l])
					}
					sum = sum.Add(l.Alloc)
					inCenter[l] = true
					live[l] = true
				}
				for i, a := range c.Allocated() {
					if math.Abs(a-sum[i]) > 1e-9 {
						fail("%s allocates %v, its live leases sum to %v", c.Name, c.Allocated(), sum)
					}
				}
				if !c.Allocated().FitsWithin(c.EffectiveCapacity()) {
					fail("%s allocates %v beyond its capacity %v", c.Name, c.Allocated(), c.EffectiveCapacity())
				}
			}
			books := map[*datacenter.Lease]int{}
			for _, g := range games {
				for _, l := range g.op.step.Leases() {
					books[l]++
					if !l.Released() {
						live[l] = true
					}
				}
			}
			for l := range live {
				switch {
				case l.Released():
					delete(live, l)
					gone[l] = true
				case !inCenter[l]:
					fail("a live lease of %s is missing from its center's book", l.Tag)
				case books[l] != 1:
					fail("a live lease of %s is in %d operator books", l.Tag, books[l])
				}
			}
		}

		for op := 0; op < 320; op++ {
			g := games[r.Intn(2)]
			var what string
			switch k := r.Intn(100); {
			case k < 50:
				what = "observe"
				loads := make([]float64, 3)
				for z := range loads {
					loads[z] = float64(r.Intn(3000))
					if r.Intn(20) == 0 {
						loads[z] = math.NaN()
					}
				}
				if err := g.op.Observe(g.now(), loads); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				g.tick++
			case k < 57:
				what = "fail"
				c := r.Intn(len(centers))
				centers[c].Fail()
				failed[c]++
			case k < 64:
				what = "recover"
				if c := r.Intn(len(centers)); failed[c] > 0 {
					centers[c].Recover()
					failed[c]--
				}
			case k < 71:
				what = "degrade"
				c, frac := r.Intn(len(centers)), 0.1+0.5*r.Float64()
				shed += len(centers[c].Degrade(frac))
				degraded[c] = append(degraded[c], frac)
			case k < 78:
				what = "restore"
				if c := r.Intn(len(centers)); len(degraded[c]) > 0 {
					n := len(degraded[c]) - 1
					centers[c].Restore(degraded[c][n])
					degraded[c] = degraded[c][:n]
				}
			case k < 86:
				what = "snapshot"
				snap, err := g.op.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				g.snaps = append(g.snaps, snap)
			case k < 94:
				what = "crash and restore"
				snap, err := g.op.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				held := 0
				for _, l := range g.op.step.Leases() {
					if !l.Released() {
						held++
					}
				}
				if len(g.snaps) > 0 && r.Intn(2) == 0 {
					what = "crash and restore from an older snapshot"
					snap, held = g.snaps[r.Intn(len(g.snaps))], -1
				}
				restored, rec, err := FromSnapshot(g.cfg, snap)
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				// Restored from the book as it stands, every held lease is
				// adopted and none lost or orphaned.
				if held >= 0 && *rec != (Reconciliation{Adopted: held}) {
					t.Fatalf("seed %d op %d: restoring %d held leases reconciled %+v", seed, op, held, *rec)
				}
				g.op = restored
				adopted += rec.Adopted
				lost += rec.Lost
				orphaned += rec.Orphaned
			default:
				what = "drain and start afresh"
				g.op.Shutdown()
				check(op, "drain")
				fresh, err := New(g.cfg)
				if err != nil {
					t.Fatal(err)
				}
				g.op = fresh
				drained++
			}
			check(op, what)
		}
	}
	t.Logf("%d adopted, %d lost and %d orphaned on restore, %d shed, %d drains",
		adopted, lost, orphaned, shed, drained)
	if adopted == 0 || lost == 0 || orphaned == 0 || shed == 0 || drained == 0 {
		t.Fatal("the walk missed a restore outcome, a shed or a drain")
	}
}
