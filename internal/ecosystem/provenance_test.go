package ecosystem

import (
	"math"
	"strings"
	"testing"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/geo"
)

// dispOf returns the verdict for a named center, failing if absent.
func dispOf(t *testing.T, d *Decision, center string) CandidateVerdict {
	t.Helper()
	for _, v := range d.Candidates {
		if v.Center == center {
			return v
		}
	}
	t.Fatalf("decision has no verdict for %q: %+v", center, d.Candidates)
	return CandidateVerdict{}
}

func TestProvenanceDispositions(t *testing.T) {
	// Four centers, one fate each: "shunned" is excluded by failover,
	// "sydney" is out of the latency class, "small" grants everything,
	// "spare" is ranked but never reached.
	small := datacenter.NewCenter("small", geo.London, 10, mkPolicy("p", 0.25, time.Hour))
	spare := datacenter.NewCenter("spare", geo.Amsterdam, 10, mkPolicy("p", 0.25, time.Hour))
	shunned := datacenter.NewCenter("shunned", geo.London, 10, mkPolicy("p", 0.25, time.Hour))
	sydney := datacenter.NewCenter("sydney", geo.Sydney, 10, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{small, spare, shunned, sydney})
	m.SetDecisionLog(NewDecisionLog(4))

	req := cpuReq("z", 1.0, geo.London, 2000)
	req.Exclude = []string{"shunned"}
	_, unmet, out := m.AllocateDetailed(nil, req, t0)
	if !unmet.IsZero() {
		t.Fatalf("unmet = %v", unmet)
	}
	if out.Decision == nil {
		t.Fatal("log installed but Outcome.Decision is nil")
	}
	d := out.Decision
	if d.Tag != "z" || d.Seq != 1 {
		t.Fatalf("decision tag/seq = %q/%d", d.Tag, d.Seq)
	}
	if len(d.Candidates) != 4 {
		t.Fatalf("got %d verdicts, want one per center: %+v", len(d.Candidates), d.Candidates)
	}

	if v := dispOf(t, d, "small"); v.Disposition != DispGranted || v.Rank != 1 || v.CPU != 1.0 {
		t.Fatalf("small = %+v, want granted rank 1 cpu 1.0", v)
	}
	if v := dispOf(t, d, "spare"); v.Disposition != DispNotNeeded || v.Rank != 2 {
		t.Fatalf("spare = %+v, want not-needed rank 2", v)
	}
	if v := dispOf(t, d, "shunned"); v.Disposition != DispExcludedByFailover || v.Rank != 0 {
		t.Fatalf("shunned = %+v, want excluded-by-failover rank 0", v)
	}
	if v := dispOf(t, d, "sydney"); v.Disposition != DispOutOfLatencyClass || v.Rank != 0 {
		t.Fatalf("sydney = %+v, want out-of-latency-class rank 0", v)
	}

	// Ranked verdicts precede the filtered ones in walk order.
	walk := string(d.AppendWalk(nil))
	if !strings.HasPrefix(walk, "small=granted,spare=not-needed,") {
		t.Fatalf("walk = %q", walk)
	}
	if strings.Count(walk, "=") != 4 || strings.Count(walk, ",") != 3 {
		t.Fatalf("walk shape off: %q", walk)
	}
}

func TestProvenanceInjectorDispositions(t *testing.T) {
	reject := datacenter.NewCenter("reject", geo.London, 10, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{reject})
	m.SetFaultInjector(rejectAll{})
	m.SetDecisionLog(NewDecisionLog(2))
	_, _, out := m.AllocateDetailed(nil, cpuReq("z", 1.0, geo.London, math.Inf(1)), t0)
	if v := dispOf(t, out.Decision, "reject"); v.Disposition != DispRejectedByInjector {
		t.Fatalf("reject = %+v, want rejected-by-injector", v)
	}

	trim := datacenter.NewCenter("trim", geo.London, 40, mkPolicy("p", 0.25, time.Hour))
	m = NewMatcher([]*datacenter.Center{trim})
	m.SetFaultInjector(halveAll{})
	m.SetDecisionLog(NewDecisionLog(2))
	_, _, out = m.AllocateDetailed(nil, cpuReq("z", 4.0, geo.London, math.Inf(1)), t0)
	v := dispOf(t, out.Decision, "trim")
	if v.Disposition != DispPartialTrimmed {
		t.Fatalf("trim = %+v, want partial-trimmed", v)
	}
	if v.CPU <= 0 || v.CPU >= 4.0 {
		t.Fatalf("trimmed grant CPU = %v, want in (0, 4)", v.CPU)
	}
}

func TestProvenanceNoCapacity(t *testing.T) {
	// One machine = 1 CPU unit of capacity; the second call finds it
	// exhausted.
	tiny := datacenter.NewCenter("tiny", geo.London, 1, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{tiny})
	m.SetDecisionLog(NewDecisionLog(4))
	m.AllocateDetailed(nil, cpuReq("z", 1.0, geo.London, math.Inf(1)), t0)
	_, unmet, out := m.AllocateDetailed(nil, cpuReq("z", 1.0, geo.London, math.Inf(1)), t0)
	if unmet.IsZero() {
		t.Fatal("exhausted center still granted")
	}
	if v := dispOf(t, out.Decision, "tiny"); v.Disposition != DispNoCapacity {
		t.Fatalf("tiny = %+v, want no-capacity", v)
	}
	if out.Decision.UnmetCPU != unmet[datacenter.CPU] {
		t.Fatalf("decision unmet %v != outcome unmet %v", out.Decision.UnmetCPU, unmet[datacenter.CPU])
	}
}

func TestProvenanceDisabledIsNil(t *testing.T) {
	c := datacenter.NewCenter("dc", geo.London, 10, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{c})
	_, _, out := m.AllocateDetailed(nil, cpuReq("z", 1.0, geo.London, math.Inf(1)), t0)
	if out.Decision != nil {
		t.Fatal("no log installed but Outcome.Decision is set")
	}
}

func TestProvenanceDoesNotChangeAllocation(t *testing.T) {
	// The same request sequence against a logged and an unlogged
	// matcher must produce identical leases and unmet demand — the
	// provenance layer is write-only.
	build := func(log bool) *Matcher {
		a := datacenter.NewCenter("a", geo.Amsterdam, 3, mkPolicy("p", 0.25, time.Hour))
		b := datacenter.NewCenter("b", geo.London, 3, mkPolicy("p", 0.5, time.Hour))
		m := NewMatcher([]*datacenter.Center{a, b})
		m.SetFaultInjector(halveAll{})
		if log {
			m.SetDecisionLog(NewDecisionLog(8))
		}
		return m
	}
	plain, logged := build(false), build(true)
	for i := 0; i < 6; i++ {
		req := cpuReq("z", 0.75+float64(i%3), geo.London, math.Inf(1))
		lp, up, _ := plain.AllocateDetailed(nil, req, t0)
		ll, ul, _ := logged.AllocateDetailed(nil, req, t0)
		if up != ul {
			t.Fatalf("call %d: unmet diverged: %v vs %v", i, up, ul)
		}
		if len(lp) != len(ll) {
			t.Fatalf("call %d: lease count diverged: %d vs %d", i, len(lp), len(ll))
		}
		for j := range lp {
			if lp[j].Center.Name != ll[j].Center.Name || lp[j].Alloc != ll[j].Alloc {
				t.Fatalf("call %d lease %d diverged: %s %v vs %s %v",
					i, j, lp[j].Center.Name, lp[j].Alloc, ll[j].Center.Name, ll[j].Alloc)
			}
		}
	}
}

func TestDecisionLogRingWrap(t *testing.T) {
	c := datacenter.NewCenter("dc", geo.London, 100, mkPolicy("p", 0.25, time.Hour))
	m := NewMatcher([]*datacenter.Center{c})
	log := NewDecisionLog(2)
	m.SetDecisionLog(log)
	for i := 0; i < 5; i++ {
		m.AllocateDetailed(nil, cpuReq("z", 0.25, geo.London, math.Inf(1)), t0)
	}
	if log.total != 5 {
		t.Fatalf("total = %d, want 5", log.total)
	}
	snap := log.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot holds %d, want ring capacity 2", len(snap))
	}
	if snap[0].Seq != 4 || snap[1].Seq != 5 {
		t.Fatalf("snapshot seqs = %d,%d, want oldest-first 4,5", snap[0].Seq, snap[1].Seq)
	}
	// Snapshot must be a deep copy: mutating it cannot touch the ring.
	snap[0].Candidates[0].Center = "tampered"
	if log.Snapshot()[0].Candidates[0].Center == "tampered" {
		t.Fatal("Snapshot aliases the ring storage")
	}

	// A synthesized record takes a slot but no sequence number: the
	// next matcher decision continues at 6.
	verdicts := []CandidateVerdict{{Center: "dc", Disposition: DispCircuitOpen}}
	log.Synthesize(Decision{Seq: 99, Tick: 7, Tag: "z", Candidates: verdicts})
	verdicts[0].Center = "tampered"
	if last := log.Snapshot()[1]; last.Seq != 0 || last.Tick != 7 || last.Candidates[0].Center != "dc" {
		t.Fatalf("newest record after Synthesize = %+v, want an owned seq-0 record at tick 7", last)
	}
	m.AllocateDetailed(nil, cpuReq("z", 0.25, geo.London, math.Inf(1)), t0)
	if snap := log.Snapshot(); log.total != 6 || snap[0].Seq != 0 || snap[1].Seq != 6 {
		t.Fatalf("after Synthesize and one call: total %d, snapshot seqs %d,%d; want 6 and 0,6",
			log.total, snap[0].Seq, snap[1].Seq)
	}
}

// TestCompareCandidatesInsertionOrderIndependence pins the tie-break:
// two centers with identical policy, identical distance (same
// location), and therefore the same latency class must rank by name no
// matter the order they were registered in — the candidate ranking
// must be a pure function of the ecosystem, not of Matcher
// construction history.
func TestCompareCandidatesInsertionOrderIndependence(t *testing.T) {
	build := func(order ...string) *Matcher {
		var cs []*datacenter.Center
		for _, name := range order {
			cs = append(cs, datacenter.NewCenter(name, geo.London, 10, mkPolicy("p", 0.25, time.Hour)))
		}
		return NewMatcher(cs)
	}
	req := cpuReq("z", 0.5, geo.London, math.Inf(1))

	fwd, _, _ := build("alpha", "beta").AllocateDetailed(nil, req, t0)
	rev, _, _ := build("beta", "alpha").AllocateDetailed(nil, req, t0)
	if fwd[0].Center.Name != "alpha" || rev[0].Center.Name != "alpha" {
		t.Fatalf("winner depends on insertion order: fwd=%s rev=%s",
			fwd[0].Center.Name, rev[0].Center.Name)
	}

	// The comparator itself must be antisymmetric on the name tie.
	a := candidate{center: datacenter.NewCenter("alpha", geo.London, 1, mkPolicy("p", 0.25, time.Hour)), distKm: 0}
	b := candidate{center: datacenter.NewCenter("beta", geo.London, 1, mkPolicy("p", 0.25, time.Hour)), distKm: 0}
	if compareCandidates(a, b) >= 0 || compareCandidates(b, a) <= 0 {
		t.Fatalf("name tie-break not antisymmetric: cmp(a,b)=%d cmp(b,a)=%d",
			compareCandidates(a, b), compareCandidates(b, a))
	}
	if compareCandidates(a, a) != 0 {
		t.Fatalf("cmp(a,a) = %d, want 0", compareCandidates(a, a))
	}
}
