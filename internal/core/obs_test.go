package core

import (
	"strings"
	"testing"
	"time"

	"mmogdc/internal/faults"
	"mmogdc/internal/obs"
)

// obsConfig is the equivalence scenario plus a chaos-grade fault plan,
// so every instrumented site fires: outages and degradations, grant
// rejections with retries, partial grants, monitoring dropouts, and
// same-tick failovers.
func obsConfig(workers int, o *obs.Obs) Config {
	cfg := equivalenceConfig(workers)
	cfg.Faults = &faults.Config{
		Seed:             99,
		MTBFTicks:        150,
		MTTRTicks:        25,
		DegradedShare:    0.5,
		RejectProb:       0.05,
		PartialGrantProb: 0.05,
		DropoutProb:      0.05,
	}
	cfg.Obs = o
	return cfg
}

// TestObsRunBitIdentical is the write-only contract of the telemetry
// layer: enabling observability — including span tracing — must not
// change a single bit of the Result, on a run that exercises every
// instrumented path. daemon.TestDaemonObsBitIdentical extends the same
// contract to the service path (request tracing, SLO rules, runtime
// telemetry), and scripts/slo_smoke.sh re-proves it end to end over
// HTTP.
func TestObsRunBitIdentical(t *testing.T) {
	plain, err := Run(obsConfig(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	o.Clock = obs.NewManualClock(time.Unix(0, 0), time.Millisecond)
	o.EnableTracing()
	instrumented, err := Run(obsConfig(2, o))
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, plain, instrumented)
	if plain.Resilience.Failovers == 0 || plain.Resilience.Rejections == 0 ||
		plain.Resilience.DroppedSamples == 0 {
		t.Fatalf("degenerate fault scenario: %+v", plain.Resilience)
	}
	if o.Tracer.Len() == 0 {
		t.Fatal("tracing was enabled but captured no spans")
	}

	// Decision provenance is write-only too: an instrumented run with a
	// decision log must still be bit-identical.
	o2 := obs.New()
	o2.Clock = obs.NewManualClock(time.Unix(0, 0), time.Millisecond)
	cfg := obsConfig(2, o2)
	cfg.Provenance = 256
	explained, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, plain, explained)
	decisions := 0
	for _, e := range o2.Recorder.Events() {
		if e.Kind == obs.EventDecision {
			decisions++
		}
	}
	if decisions == 0 {
		t.Fatal("provenance enabled but no decision events recorded")
	}
}

// TestObsTraceCapturesEngineStructure pins the span families the
// engine emits: per-tick roots with phase children, per-zone predict
// spans carrying worker indices, zone acquire spans (including
// failover and retry variants), and async outage windows.
func TestObsTraceCapturesEngineStructure(t *testing.T) {
	o := obs.New()
	o.Clock = obs.NewManualClock(time.Unix(0, 0), time.Millisecond)
	o.Recorder = obs.NewRecorder(1 << 17)
	o.EnableTracing()
	res, err := Run(obsConfig(1, o))
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string]int{}
	linkedFailovers, linkedRetries, asyncBegins, asyncEnds := 0, 0, 0, 0
	byID := map[obs.SpanID]obs.SpanRec{}
	for _, r := range o.Tracer.Records() {
		byName[r.Name]++
		switch r.Phase {
		case obs.PhaseAsyncBegin:
			asyncBegins++
		case obs.PhaseAsyncEnd:
			asyncEnds++
		default:
			byID[r.ID] = r
		}
		if r.Link != 0 {
			switch r.Name {
			case "acquire.failover":
				linkedFailovers++
			case "acquire.retry":
				linkedRetries++
			}
		}
	}
	if byName["tick"] != res.Ticks {
		t.Errorf("tick spans = %d, want %d", byName["tick"], res.Ticks)
	}
	if byName["bootstrap"] != 1 {
		t.Errorf("bootstrap spans = %d, want 1", byName["bootstrap"])
	}
	if byName["phase.observe"] != res.Ticks || byName["phase.reduce"] != res.Ticks {
		t.Errorf("phase spans observe=%d reduce=%d, want %d each",
			byName["phase.observe"], byName["phase.reduce"], res.Ticks)
	}
	// The final tick skips the acquire phase.
	if byName["phase.acquire"] != res.Ticks-1 {
		t.Errorf("phase.acquire spans = %d, want %d", byName["phase.acquire"], res.Ticks-1)
	}
	if byName["predict"] == 0 || byName["acquire"] == 0 {
		t.Errorf("missing per-zone spans: %v", byName)
	}
	if byName["acquire.failover"] == 0 || linkedFailovers == 0 {
		t.Errorf("failover spans = %d (linked %d), want > 0", byName["acquire.failover"], linkedFailovers)
	}
	if byName["acquire.retry"] == 0 || linkedRetries == 0 {
		t.Errorf("retry spans = %d (linked %d), want > 0", byName["acquire.retry"], linkedRetries)
	}
	if asyncBegins == 0 || asyncEnds == 0 || asyncEnds > asyncBegins {
		t.Errorf("async windows: %d begins, %d ends", asyncBegins, asyncEnds)
	}

	// Every predict span parents to a phase.observe (or bootstrap)
	// span of the same tick.
	for _, r := range byID {
		if r.Name != "predict" {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok || (p.Name != "phase.observe" && p.Name != "bootstrap") || p.Tick != r.Tick {
			t.Fatalf("predict span %+v has parent %+v", r, p)
		}
	}

	// Events carry their enclosing span and a strict Seq total order.
	var lastSeq uint64
	stamped := 0
	for _, e := range o.Recorder.Events() {
		if e.Seq != lastSeq+1 {
			t.Fatalf("event seq %d follows %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Span != 0 {
			stamped++
		}
	}
	if stamped == 0 {
		t.Error("no event carries a span ID")
	}
}

// TestObsCountersMatchResilience pins the Resilience bridge: the
// registry counters must land on exactly the values the Result
// reports, because both are incremented at the same sites.
func TestObsCountersMatchResilience(t *testing.T) {
	o := obs.New()
	// The default 4096-event ring wraps on a run this long; keep every
	// event so the kind census below sees the whole story.
	o.Recorder = obs.NewRecorder(1 << 17)
	res, err := Run(obsConfig(4, o))
	if err != nil {
		t.Fatal(err)
	}
	r := o.Registry
	resil := res.Resilience
	counters := []struct {
		name string
		got  int64
		want int
	}{
		{"mmogdc_ticks_total", r.Counter("mmogdc_ticks_total", "").Value(), res.Ticks},
		{"mmogdc_disruptive_ticks_total", r.Counter("mmogdc_disruptive_ticks_total", "").Value(), res.Events},
		{"mmogdc_unmet_ticks_total", r.Counter("mmogdc_unmet_ticks_total", "").Value(), res.Unmet},
		{"mmogdc_failovers_total", r.Counter("mmogdc_failovers_total", "").Value(), resil.Failovers},
		{"mmogdc_failover_leases_total", r.Counter("mmogdc_failover_leases_total", "").Value(), resil.FailoverLeases},
		{"mmogdc_retries_total", r.Counter("mmogdc_retries_total", "").Value(), resil.Retries},
		{"mmogdc_rejections_total", r.Counter("mmogdc_rejections_total", "").Value(), resil.Rejections},
		{"mmogdc_partial_grants_total", r.Counter("mmogdc_partial_grants_total", "").Value(), resil.PartialGrants},
		{"mmogdc_dropped_samples_total", r.Counter("mmogdc_dropped_samples_total", "").Value(), resil.DroppedSamples},
	}
	for _, c := range counters {
		if c.got != int64(c.want) {
			t.Errorf("%s = %d, want %d (Resilience parity)", c.name, c.got, c.want)
		}
	}

	// Per-phase timing covered every scored tick.
	for _, phase := range []string{"observe", "reduce", "acquire"} {
		h := r.Histogram("mmogdc_tick_phase_duration_seconds", "", obs.TimeBuckets, obs.L("phase", phase))
		want := int64(res.Ticks)
		if phase == "acquire" {
			// The final tick skips the acquire phase.
			want--
		}
		if h.Count() != want {
			t.Errorf("phase %q observations = %d, want %d", phase, h.Count(), want)
		}
	}
	if h := r.Histogram("mmogdc_tick_duration_seconds", "", obs.TimeBuckets); h.Count() != int64(res.Ticks) {
		t.Errorf("tick duration observations = %d, want %d", h.Count(), res.Ticks)
	}

	// End-of-run gauges bridged from the Result.
	for name, avail := range resil.Availability {
		g := r.Gauge("mmogdc_center_availability", "", obs.L("center", name))
		if g.Value() != avail {
			t.Errorf("availability[%s] gauge = %v, want %v", name, g.Value(), avail)
		}
	}
	if g := r.Gauge("mmogdc_capacity_lost_cpu_ticks", ""); g.Value() != resil.CapacityLostCPUTicks {
		t.Errorf("capacity lost gauge = %v, want %v", g.Value(), resil.CapacityLostCPUTicks)
	}

	// The flight recorder saw the outage story.
	kinds := map[string]int{}
	for _, e := range o.Recorder.Events() {
		kinds[e.Kind]++
	}
	for _, want := range []string{obs.EventGrant, obs.EventFailover, obs.EventRejection,
		obs.EventDropped, obs.EventRetry} {
		if kinds[want] == 0 {
			t.Errorf("flight recorder has no %q events (kinds: %v)", want, kinds)
		}
	}
	if kinds[obs.EventOutage]+kinds[obs.EventDegrade] == 0 {
		t.Errorf("flight recorder has no outage/degrade events (kinds: %v)", kinds)
	}

	// Pool utilization bridged: caller+helper indices equal the per-zone
	// work the run dispatched. Every scored tick plus the bootstrap runs
	// one For over all zones.
	caller := r.Counter("mmogdc_pool_indices_total", "", obs.L("executor", "caller")).Value()
	helper := r.Counter("mmogdc_pool_indices_total", "", obs.L("executor", "helper")).Value()
	if caller+helper == 0 {
		t.Error("pool utilization counters never moved")
	}

	// Prometheus exposition carries the key series end-to-end.
	text := r.PrometheusText()
	for _, want := range []string{
		"mmogdc_tick_duration_seconds_bucket",
		"mmogdc_failovers_total",
		"mmogdc_center_availability{center=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
