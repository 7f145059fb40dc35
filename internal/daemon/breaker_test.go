package daemon

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mmogdc/internal/obs"
)

// Values of the mmogdc_daemon_breaker_state gauge.
const (
	gaugeClosed   = 0
	gaugeHalfOpen = 1
	gaugeOpen     = 2
)

// breakerGauge reads the region's mmogdc_daemon_breaker_state gauge.
func breakerGauge(d *Daemon, region string) float64 {
	return d.obs.Registry.Gauge("mmogdc_daemon_breaker_state", "", obs.L("region", region)).Value()
}

// TestBreakerStateMachine walks the region circuit through its whole
// life directly: trip after threshold consecutive rejected passes,
// refuse while open, admit a paced half-open probe, reopen on a failed
// probe, and close on a granted one. testMatcher's centers (London and
// Amsterdam) both live in the "eu" failure domain.
func TestBreakerStateMachine(t *testing.T) {
	hot := fastHot()
	hot.BreakerThreshold = 3
	hot.BreakerCooldown = 2
	d := newTestDaemon(t, func(c *Config) { c.Hot = hot })
	defer drain(t, d)
	b := d.brk

	if !b.allow("eu") {
		t.Fatal("closed circuit refused admission")
	}
	// Two rejected passes are below the threshold.
	b.record(nil, []string{"dc-a"})
	b.record(nil, []string{"dc-a", "dc-b"})
	if s := breakerGauge(d, "eu"); s != gaugeClosed {
		t.Fatalf("below threshold, state = %v", s)
	}
	// A granted pass resets the streak even when another center in the
	// region rejected.
	b.record([]string{"dc-b"}, []string{"dc-a"})
	b.record(nil, []string{"dc-a"})
	b.record(nil, []string{"dc-a"})
	if s := breakerGauge(d, "eu"); s != gaugeClosed {
		t.Fatalf("streak did not reset on grant, state = %v", s)
	}
	// The third consecutive rejection trips the circuit.
	b.record(nil, []string{"dc-a"})
	if s := breakerGauge(d, "eu"); s != gaugeOpen {
		t.Fatalf("at threshold, state = %v", s)
	}
	// Open: refusals are paced, every BreakerCooldown-th converts into
	// a half-open probe admission.
	if b.allow("eu") {
		t.Fatal("open circuit admitted before the cooldown")
	}
	if !b.allow("eu") {
		t.Fatal("cooldown refusals did not convert into a probe")
	}
	if s := breakerGauge(d, "eu"); s != gaugeHalfOpen {
		t.Fatalf("after probe admission, state = %v", s)
	}
	// The probe's pass is rejected: straight back to open.
	b.record(nil, []string{"dc-b"})
	if s := breakerGauge(d, "eu"); s != gaugeOpen {
		t.Fatalf("failed probe, state = %v", s)
	}
	// Next probe succeeds: the circuit closes and admission is free.
	b.allow("eu")
	if !b.allow("eu") {
		t.Fatal("second probe not admitted")
	}
	b.record([]string{"dc-a"}, nil)
	if s := breakerGauge(d, "eu"); s != gaugeClosed {
		t.Fatalf("granted probe, state = %v", s)
	}
	if !b.allow("eu") {
		t.Fatal("closed circuit refused admission after recovery")
	}
	// A pass that never touched the region leaves it alone.
	b.record(nil, nil)
	if s := breakerGauge(d, "eu"); s != gaugeClosed {
		t.Fatalf("idle pass moved the state to %v", s)
	}
	// Unknown regions are never gated.
	if !b.allow("mars") {
		t.Fatal("unknown region refused")
	}
}

// TestBreakerDisabledByDefault: with BreakerThreshold 0 the breaker is
// inert no matter what the grant stream looks like.
func TestBreakerDisabledByDefault(t *testing.T) {
	d := newTestDaemon(t, nil)
	defer drain(t, d)
	for i := 0; i < 10; i++ {
		d.brk.record(nil, []string{"dc-a", "dc-b"})
	}
	if s := breakerGauge(d, "eu"); s != gaugeClosed {
		t.Fatalf("disarmed breaker tripped, state = %v", s)
	}
	if !d.brk.allow("eu") {
		t.Fatal("disarmed breaker refused admission")
	}
}

// TestBreakerTripsAndRecoversOverAPI drives the full loop through the
// HTTP surface: total grant rejection trips the "eu" circuit and
// observe returns the typed region_unavailable 503; healing the fault
// injector lets a half-open probe grant, the circuit closes, and
// admission resumes with 202s.
func TestBreakerTripsAndRecoversOverAPI(t *testing.T) {
	hot := fastHot()
	hot.FaultRejectProb = 1 // every grant attempt is rejected
	hot.BreakerThreshold = 2
	hot.BreakerCooldown = 3
	d := newTestDaemon(t, func(c *Config) { c.Hot = hot })
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	ticksSeen := 0
	admit := func() int {
		t.Helper()
		resp := postObserve(t, srv.URL, "g1", []float64{100, 50})
		code := resp.StatusCode
		if code == http.StatusAccepted {
			ticksSeen++
			resp.Body.Close()
			waitTicks(t, d, "g1", ticksSeen)
			return code
		}
		if c := decodeError(t, resp); c != "region_unavailable" {
			t.Fatalf("refused with code %q, want region_unavailable (status %d)", c, code)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("region_unavailable without Retry-After")
		}
		return code
	}

	// Rejected grant passes (spaced by the operator's bounded backoff)
	// accumulate until the circuit opens and admission turns into 503s.
	tripped := false
	for i := 0; i < 50 && !tripped; i++ {
		tripped = admit() == http.StatusServiceUnavailable
	}
	if !tripped {
		t.Fatal("total grant rejection never tripped the region circuit")
	}

	// Heal the hoster and keep knocking: refusals pace in half-open
	// probes, one eventually grants, and the circuit closes.
	healed := d.Hot()
	healed.FaultRejectProb = 0
	if err := d.Reload(healed); err != nil {
		t.Fatal(err)
	}
	recovered := false
	for i := 0; i < 80 && !recovered; i++ {
		recovered = admit() == http.StatusAccepted &&
			breakerGauge(d, "eu") == gaugeClosed
	}
	if !recovered {
		t.Fatalf("circuit never closed after healing (state %v)",
			breakerGauge(d, "eu"))
	}

	// The trip is visible on the ops surface.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), `mmogdc_daemon_breaker_trips_total{region="eu"}`) {
		t.Fatal("/metrics missing the breaker trip counter")
	}
	if !strings.Contains(buf.String(), `mmogdc_daemon_rejected_total{reason="region_unavailable"}`) {
		t.Fatal("/metrics missing the typed rejection counter")
	}
}
