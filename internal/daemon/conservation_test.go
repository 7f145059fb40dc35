package daemon

import (
	"math"
	"net/http"
	"net/http/httptest"
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

// crash stops d's workers the way a killed process stops them: what is
// admitted is observed, but nothing is released and no final checkpoint
// is written (Drain does both).
func crash(d *Daemon) {
	d.BeginDrain()
	d.wg.Wait()
}

// leaseKey is what a lease view shows of a lease, with its tag.
type leaseKey struct {
	center, tag    string
	cpu            float64
	start, expires int64
}

// TestLeasesConservedAcrossDaemonCrash is a seeded walk of two games on
// one daemon over one matcher of three centers, with cadence
// checkpoints and grant rejections and trims injected by the hot
// config. Its steps: an observation posted over HTTP to either game, a
// reload to another rejection rate, a center failure or recovery, and
// a crash of the whole daemon followed
// by a new daemon over the same matcher and checkpoint directory, which
// adopts each game's surviving leases and releases its orphans. After
// every step each center's allocation fits its effective capacity and
// equals its live leases' sum within 1e-9 per component, and every
// lease ever seen is either live — in its center's book and, counted by
// what a lease view shows, held once by the game its tag names — or
// released, in no center's book, never to return.
func TestLeasesConservedAcrossDaemonCrash(t *testing.T) {
	var adopted, lost, orphaned, crashes int
	for seed := uint64(1); seed <= 8; seed++ {
		r := xrand.New(seed)
		var centers []*datacenter.Center
		for i := 0; i < 3; i++ {
			p := datacenter.HostingPolicy{Name: "p" + strconv.Itoa(i),
				Bulk: datacenter.Vector{0.25 * float64(1+i)}, TimeBulk: time.Duration(10+20*i) * time.Minute}
			centers = append(centers, datacenter.NewCenter("dc"+strconv.Itoa(i), geo.London, 3+r.Intn(4), p))
		}
		m := ecosystem.NewMatcher(centers)
		hot := fastHot()
		hot.TickSeconds = 120
		hot.CheckpointEvery = 1 + r.Intn(6)
		hot.FaultRejectProb, hot.FaultPartialProb, hot.FaultSeed = 0.15, 0.15, seed
		cfg := Config{
			Games: []GameSpec{
				{Name: "g1", Genre: mmog.GenreMMORPG, Origin: geo.London},
				{Name: "g2", Genre: mmog.GenreMMORPG, Origin: geo.London},
			},
			Predictor:     predict.NewLastValue(),
			Matcher:       m,
			Hot:           hot,
			CheckpointDir: t.TempDir(),
		}
		zones := map[string]int{"g1": 2, "g2": 3}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(d.Handler())

		live := map[*datacenter.Lease]bool{}
		gone := map[*datacenter.Lease]bool{}
		check := func(step int, what string) {
			t.Helper()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d (%s): "+format, append([]any{seed, step, what}, args...)...)
			}
			d.ecoMu.Lock()
			defer d.ecoMu.Unlock()
			inCenter := map[*datacenter.Lease]bool{}
			held := map[leaseKey]int{}
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
					held[leaseKey{c.Name, l.Tag, l.Alloc[datacenter.CPU], l.Start.UnixNano(), l.Expires.UnixNano()}]++
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
			for l := range live {
				switch {
				case l.Released():
					delete(live, l)
					gone[l] = true
				case !inCenter[l]:
					fail("a live lease of %s is missing from its center's book", l.Tag)
				}
			}
			// A game's book holds only leases of its own tag, and a lease
			// it holds that is not released is in its center's book, so
			// equal counts per view mean each live lease is held once.
			for k, n := range held {
				g := d.games[k.tag]
				if g == nil {
					fail("a live lease of %s belongs to no game", k.tag)
				}
				got := 0
				for _, v := range g.op.LeaseViews(time.Unix(0, k.start)) {
					if v.Center == k.center && v.CPU == k.cpu &&
						v.Start.UnixNano() == k.start && v.Expires.UnixNano() == k.expires {
						got++
					}
				}
				if got != n {
					fail("%d live leases %+v in the centers, %d in the book of %s", n, k, got, k.tag)
				}
			}
		}

		for step := 0; step < 150; step++ {
			var what string
			switch k := r.Intn(100); {
			case k < 80:
				name := "g" + strconv.Itoa(1+r.Intn(2))
				what = "observe " + name
				loads := make([]float64, zones[name])
				for z := range loads {
					loads[z] = float64(200 + r.Intn(2400))
				}
				want := d.Ticks(name) + 1
				resp := postObserve(t, srv.URL, name, loads)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("seed %d step %d: observe %s -> %d", seed, step, name, resp.StatusCode)
				}
				waitTicks(t, d, name, want)
			case k < 83:
				what = "reload"
				h := d.Hot()
				h.FaultRejectProb = 0.3 * r.Float64()
				if err := d.Reload(h); err != nil {
					t.Fatal(err)
				}
			case k < 87:
				what = "fail"
				d.ecoMu.Lock()
				centers[r.Intn(len(centers))].Fail()
				d.ecoMu.Unlock()
			case k < 91:
				what = "recover"
				d.ecoMu.Lock()
				if c := centers[r.Intn(len(centers))]; c.Offline() {
					c.Recover()
				}
				d.ecoMu.Unlock()
			default:
				what = "crash and restart"
				crash(d)
				srv.Close()
				crashes++
				check(step, "crashed")
				if d, err = New(cfg); err != nil {
					t.Fatalf("seed %d step %d: restart: %v", seed, step, err)
				}
				srv = httptest.NewServer(d.Handler())
				for _, spec := range cfg.Games {
					if _, rec, ok := d.Reconciliation(spec.Name); ok {
						adopted += rec.Adopted
						lost += rec.Lost
						orphaned += rec.Orphaned
					}
				}
			}
			check(step, what)
		}
		srv.Close()
		drain(t, d)
		check(150, "drain")
	}
	t.Logf("%d crashes: %d leases adopted, %d lost and %d orphans released on restart",
		crashes, adopted, lost, orphaned)
	if adopted == 0 || lost == 0 || orphaned == 0 {
		t.Fatal("the walk missed a restore outcome")
	}
}
