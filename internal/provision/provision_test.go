package provision

import (
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/obs"
)

var t0 = time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)

// switchable rejects every grant while on.
type switchable struct{ on bool }

func (r *switchable) GrantFault(string) (bool, float64) { return r.on, 1 }

// tick is one scripted tick of a step: the faults applied before it,
// what the step is asked for, and what it must do.
type tick struct {
	fail     string  // center to fail before the tick's prune
	reject   bool    // the injector rejects every grant this tick
	need     float64 // CPU requested
	noBudget bool    // the tick's failover budget is spent

	sent     bool     // a request reached the matcher
	failover bool     // ... as a failover
	exclude  []string // ... excluding these centers
	parked   bool     // the tick parked a failover
}

// TestStep drives one step through scripted ticks over three
// same-site centers, checking each tick's request (sent, failover,
// exclusions, parking) against the step's rules, and pins the step's
// allocation-free tick.
func TestStep(t *testing.T) {
	// Four rejected ticks back off 1, 2, 4, then 8 ticks: attempts at
	// 0, 1, 3, 7, and 15, then every 8.
	var backoff []tick
	for i := 0; i <= 24; i++ {
		backoff = append(backoff, tick{reject: true, need: 1, sent: slices.Contains([]int{0, 1, 3, 7, 15, 23}, i)})
	}
	// The rejections stop at tick 25, which still waits for 31; the
	// grant there resets the backoff, so tick 32 asks again at once.
	for i := 25; i <= 32; i++ {
		backoff = append(backoff, tick{need: 1, sent: i == 31 || i == 32})
	}

	cases := []struct {
		name  string
		ticks []tick
	}{
		{"backoff 1/2/4/8 and reset", backoff},
		{"failover overrides backoff", []tick{
			{need: 1, sent: true},
			{reject: true, need: 1, sent: true}, // backs off until tick 2
			{reject: true, need: 1, sent: true}, // until tick 4
			{fail: "a", need: 1, sent: true, failover: true, exclude: []string{"a"}},
			{need: 1, sent: true}, // the failover's grant reset the backoff
		}},
		{"zero need sends nothing", []tick{
			{need: 0},
			{need: 1, sent: true},
			{need: 0},
		}},
		{"parked failover holds, absorbs a loss, fires when due", []tick{
			{need: 2, sent: true}, // leases 1 CPU at a, 1 at b
			{fail: "a", need: 1, noBudget: true, parked: true},
			{fail: "b", need: 2}, // held: the loss of b joins the park
			{need: 2},            // still held
			{need: 2, sent: true, failover: true, exclude: []string{"a", "b"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := datacenter.HostingPolicy{Name: "fine", Bulk: datacenter.Vector{1}, TimeBulk: time.Hour}
			centers := []*datacenter.Center{
				datacenter.NewCenter("a", geo.London, 1, p),
				datacenter.NewCenter("b", geo.London, 10, p),
				datacenter.NewCenter("c", geo.London, 10, p),
			}
			m := ecosystem.NewMatcher(centers)
			inj := &switchable{}
			m.SetFaultInjector(inj)
			log := ecosystem.NewDecisionLog(64)
			m.SetDecisionLog(log)
			// Park for 3 ticks from tick 1, so the hold spans two ticks.
			key := 0
			for jitter(key, 1) != 2 {
				key++
			}
			var counts Counts
			s := New(Config{Matcher: m, Tag: "z", Origin: geo.London, MaxDistanceKm: 1e9, JitterKey: key, Counts: &counts})

			for i, tk := range tc.ticks {
				now := t0.Add(time.Duration(i) * 2 * time.Minute)
				for _, c := range centers {
					if c.Name == tk.fail {
						c.Fail()
					}
				}
				inj.on = tk.reject
				m.Expire(now)
				s.Prune(now)
				before := decisions(log)
				deferred := counts.Deferred
				a := s.Acquire(i, now, datacenter.Vector{tk.need}, !tk.noBudget)
				if sent := decisions(log) > before; sent != tk.sent {
					t.Fatalf("tick %d: sent = %v, want %v", i, sent, tk.sent)
				}
				if a.Failover != tk.failover {
					t.Fatalf("tick %d: failover = %v, want %v", i, a.Failover, tk.failover)
				}
				if parked := counts.Deferred > deferred; parked != tk.parked {
					t.Fatalf("tick %d: parked = %v, want %v", i, parked, tk.parked)
				}
				if tk.sent {
					var excluded []string
					snap := log.Snapshot()
					for _, v := range snap[len(snap)-1].Candidates {
						if v.Disposition == ecosystem.DispExcludedByFailover {
							excluded = append(excluded, v.Center)
						}
					}
					if !slices.Equal(excluded, tk.exclude) {
						t.Fatalf("tick %d: excluded %v, want %v", i, excluded, tk.exclude)
					}
				}
			}
		})
	}

	// A tick whose request finds no capacity — pruning, sizing, and the
	// matcher walk — allocates nothing.
	t.Run("granting nothing allocates nothing", func(t *testing.T) {
		p := datacenter.HostingPolicy{Name: "fine", Bulk: datacenter.Vector{1}, TimeBulk: time.Hour}
		c := datacenter.NewCenter("a", geo.London, 1, p)
		c.Fail()
		var counts Counts
		s := New(Config{
			Matcher: ecosystem.NewMatcher([]*datacenter.Center{c}),
			Tag:     "z", Origin: geo.London, MaxDistanceKm: 1e9, Counts: &counts,
		})
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			now := t0.Add(time.Duration(i) * 2 * time.Minute)
			s.Prune(now)
			need := datacenter.Vector{1}.Sub(s.AllocAt(now.Add(2 * time.Minute)))
			if a := s.Acquire(i, now, need, true); len(a.Leases) != 0 || !a.Unmet {
				t.Fatalf("offline center granted %v", a.Leases)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("a step granting nothing allocates %v per tick", allocs)
		}
	})

	// With telemetry and provenance on, a tick that wins one lease
	// allocates that lease and nothing else: the lease joins the book in
	// place and the event details are interned.
	t.Run("granting allocates only the leases won", func(t *testing.T) {
		p := datacenter.HostingPolicy{Name: "fine", Bulk: datacenter.Vector{1}, TimeBulk: 2 * time.Minute}
		m := ecosystem.NewMatcher([]*datacenter.Center{
			datacenter.NewCenter("a", geo.London, 10, p),
			datacenter.NewCenter("b", geo.Amsterdam, 10, p),
		})
		m.SetDecisionLog(ecosystem.NewDecisionLog(8))
		var counts Counts
		s := New(Config{
			Matcher: m, Tag: "z", Origin: geo.London, MaxDistanceKm: 1e9, Counts: &counts,
			Telemetry: &Telemetry{Recorder: obs.NewRecorder(8), Spans: noSpans{}},
		})
		i := 0
		tick := func() {
			now := t0.Add(time.Duration(i) * 2 * time.Minute)
			m.Expire(now)
			s.Prune(now)
			need := datacenter.Vector{1}.Sub(s.AllocAt(now.Add(2 * time.Minute)))
			if a := s.Acquire(i, now, need, true); len(a.Leases) != 1 {
				t.Fatalf("tick %d won %d leases, want 1", i, len(a.Leases))
			}
			i++
		}
		tick() // the first tick grows the books and interns the details
		if allocs := testing.AllocsPerRun(100, tick); allocs != 1 {
			t.Fatalf("a step winning one lease allocates %v per tick, want 1", allocs)
		}
	})
}

// noSpans traces nothing.
type noSpans struct{}

func (noSpans) BeginAcquire(int, string, []string, bool, obs.SpanID) *obs.Span { return nil }
func (noSpans) Enclosing() obs.SpanID                                          { return 0 }

// TestTelemetryInternBounded records grant, failover and decision
// events with three times more distinct details than the intern table
// holds, each detail twice: the table never grows past maxDetails, and
// every recorded Detail reads exactly the bytes it was rendered from,
// whether it was interned before or after the table started over.
// decisions returns how many matcher decisions log has recorded: the
// newest one's sequence number.
func decisions(log *ecosystem.DecisionLog) uint64 {
	snap := log.Snapshot()
	if len(snap) == 0 {
		return 0
	}
	return snap[len(snap)-1].Seq
}

func TestTelemetryInternBounded(t *testing.T) {
	const calls = 2 * maxDetails
	rec := obs.NewRecorder(3 * calls)
	tel := &Telemetry{Recorder: rec}
	p := datacenter.HostingPolicy{Name: "fine", Bulk: datacenter.Vector{1}, TimeBulk: time.Hour}
	spare := datacenter.NewCenter("spare", geo.London, 1, p)
	var want []string
	for i := 0; i < calls; i++ {
		name := "dc" + strconv.Itoa(i%maxDetails)
		c := datacenter.NewCenter(name, geo.London, 1, p)
		leases := []*datacenter.Lease{{Center: c}, {Center: spare}, {Center: c}}
		d := &ecosystem.Decision{Seq: uint64(i + 1), Candidates: []ecosystem.CandidateVerdict{
			{Center: name, Disposition: ecosystem.DispGranted},
			{Center: "spare", Disposition: ecosystem.DispNotNeeded},
		}}
		tel.acquired(i, "z", leases, ecosystem.Outcome{Decision: d}, []string{name}, nil)
		if n := len(tel.details); n > maxDetails {
			t.Fatalf("call %d: %d interned details, cap %d", i, n, maxDetails)
		}
		want = append(want, "centers: "+name+",spare", "lost: "+name, name+"=granted,spare=not-needed")
	}
	events := rec.Events()
	if len(events) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(events), len(want))
	}
	for i, e := range events {
		if e.Detail != want[i] {
			t.Fatalf("event %d (%s): detail %q, want %q", i, e.Kind, e.Detail, want[i])
		}
	}
}

// TestTelemetryCodedInternBounded is TestTelemetryInternBounded for the
// walks the matcher codes: a matcher of 13 centers records decisions
// whose exclusion lists make twice as many distinct walks as the table
// holds, each walk twice. The table of coded walks never grows past
// maxDetails, and every decision's Detail reads exactly what AppendWalk
// renders for it, whether its walk was interned before or after the
// table started over.
func TestTelemetryCodedInternBounded(t *testing.T) {
	const centers = 13 // 2^13 exclusion lists: 2*maxDetails walks
	walks := 1 << centers
	p := datacenter.HostingPolicy{Name: "fine", Bulk: datacenter.Vector{1}, TimeBulk: 2 * time.Minute}
	var cs []*datacenter.Center
	for i := 0; i < centers; i++ {
		cs = append(cs, datacenter.NewCenter("dc"+strconv.Itoa(i), geo.London, 1, p))
	}
	m := ecosystem.NewMatcher(cs)
	m.SetDecisionLog(ecosystem.NewDecisionLog(1))
	rec := obs.NewRecorder(1)
	tel := &Telemetry{Recorder: rec}
	for i := 0; i < 2*walks; i++ {
		now := t0.Add(time.Duration(i) * 2 * time.Minute)
		m.Expire(now)
		var exclude []string
		for j, c := range cs {
			if (i%walks)>>j&1 == 1 {
				exclude = append(exclude, c.Name)
			}
		}
		leases, _, out := m.AllocateDetailed(nil, ecosystem.Request{
			Tag: "z", Origin: geo.London, MaxDistanceKm: math.Inf(1), Demand: datacenter.Vector{1}, Exclude: exclude,
		}, now)
		tel.acquired(i, "z", leases, out, nil, nil)
		if n := len(tel.walks); n > maxDetails {
			t.Fatalf("call %d: %d interned walks, cap %d", i, n, maxDetails)
		}
		events := rec.Events()
		if got, want := events[len(events)-1].Detail, string(out.Decision.AppendWalk(nil)); got != want {
			t.Fatalf("call %d: detail %q, want %q", i, got, want)
		}
	}
	if len(tel.details) > centers {
		t.Fatalf("%d details in the text table, want only the %d grant details", len(tel.details), centers)
	}
}

// TestTelemetryWalksPerMatcher: two matchers whose centers differ only
// in name code their walks alike, and one Telemetry takes decisions
// from both in turn; each decision's Detail must name its own centers.
func TestTelemetryWalksPerMatcher(t *testing.T) {
	p := datacenter.HostingPolicy{Name: "fine", Bulk: datacenter.Vector{1}, TimeBulk: 2 * time.Minute}
	var ms []*ecosystem.Matcher
	for _, prefix := range []string{"a", "b"} {
		m := ecosystem.NewMatcher([]*datacenter.Center{
			datacenter.NewCenter(prefix+"0", geo.London, 4, p),
			datacenter.NewCenter(prefix+"1", geo.London, 4, p),
		})
		m.SetDecisionLog(ecosystem.NewDecisionLog(1))
		ms = append(ms, m)
	}
	rec := obs.NewRecorder(1)
	tel := &Telemetry{Recorder: rec}
	for i := 0; i < 8; i++ {
		m := ms[i%2]
		leases, _, out := m.AllocateDetailed(nil, ecosystem.Request{
			Tag: "z", Origin: geo.London, MaxDistanceKm: math.Inf(1), Demand: datacenter.Vector{1},
		}, t0)
		tel.acquired(i, "z", leases, out, nil, nil)
		if got, want := rec.Events()[0].Detail, string(out.Decision.AppendWalk(nil)); got != want {
			t.Fatalf("decision %d: detail %q, want %q", i, got, want)
		}
	}
}
