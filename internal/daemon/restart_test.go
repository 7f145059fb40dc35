package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mmogdc/internal/operator"
	"mmogdc/internal/slo"
)

// A clean drain releases every lease and flushes a final checkpoint, so
// the restart reconciles trivially: N ticks restored, nothing adopted,
// nothing lost, nothing orphaned.
func TestDrainCheckpointRestartClean(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, func(c *Config) { c.CheckpointDir = dir })
	srv := httptest.NewServer(d.Handler())

	const n = 6
	for i := 0; i < n; i++ {
		resp := postObserve(t, srv.URL, "g1", []float64{40, 60})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe -> %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	waitTicks(t, d, "g1", n)
	drain(t, d)
	srv.Close()

	// Restart into a fresh ecosystem (the old one died with the process).
	d2 := newTestDaemon(t, func(c *Config) { c.CheckpointDir = dir })
	defer drain(t, d2)
	tick, rec, ok := d2.Reconciliation("g1")
	if !ok {
		t.Fatal("restarted daemon reports no restore")
	}
	if tick != n {
		t.Fatalf("restored tick = %d, want %d", tick, n)
	}
	if rec.Adopted != 0 || rec.Lost != 0 || rec.Orphaned != 0 {
		t.Fatalf("clean drain should reconcile 0/0/0, got %+v", rec)
	}
	if got := d2.Ticks("g1"); got != n {
		t.Fatalf("restored operator at %d ticks, want %d", got, n)
	}
	// The restored checkpoint fixes the zone count: a mismatched
	// snapshot is refused before it can wedge the operator.
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	resp := postObserve(t, srv2.URL, "g1", []float64{1, 2, 3})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched zones after restore -> %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
}

// A crash (no drain) leaves live leases in the checkpoint; the restart
// into a fresh ecosystem must report them lost — the reconciliation is
// honest about what did not survive.
func TestCrashRestartReportsLostLeases(t *testing.T) {
	dir := t.TempDir()
	hot := fastHot()
	hot.CheckpointEvery = 1
	d := newTestDaemon(t, func(c *Config) {
		c.CheckpointDir = dir
		c.Hot = hot
	})
	srv := httptest.NewServer(d.Handler())

	for i := 0; i < 4; i++ {
		resp := postObserve(t, srv.URL, "g1", []float64{200, 100})
		resp.Body.Close()
	}
	waitTicks(t, d, "g1", 4)
	// Simulated crash: the process dies with leases on the books. The
	// first daemon is deliberately NOT drained before the restart.
	srv.Close()

	d2 := newTestDaemon(t, func(c *Config) { c.CheckpointDir = dir })
	tick, rec, ok := d2.Reconciliation("g1")
	if !ok || tick == 0 {
		t.Fatalf("no cadence checkpoint restored (ok=%v tick=%d)", ok, tick)
	}
	if rec.Lost == 0 {
		t.Fatalf("crash restart into a fresh ecosystem reconciled %+v, want Lost > 0", rec)
	}
	if rec.Adopted != 0 {
		t.Fatalf("nothing can be adopted from a dead ecosystem, got %+v", rec)
	}
	drain(t, d2)
	drain(t, d) // cleanup: stop the abandoned daemon's workers
}

// A crash before the first cadence checkpoint restarts from the tick-0
// checkpoint the fresh game wrote, so the restart over the same matcher
// releases the crashed run's leases as orphans instead of leaving them
// held by no game.
func TestCrashBeforeFirstCheckpointReleasesLeases(t *testing.T) {
	dir := t.TempDir()
	m := testMatcher()
	hot := fastHot()
	hot.CheckpointEvery = 100
	mutate := func(c *Config) {
		c.CheckpointDir = dir
		c.Matcher = m
		c.Hot = hot
	}
	d := newTestDaemon(t, mutate)
	srv := httptest.NewServer(d.Handler())
	for i := 0; i < 3; i++ {
		postObserve(t, srv.URL, "g1", []float64{200, 100}).Body.Close()
	}
	waitTicks(t, d, "g1", 3)
	crash(d)
	srv.Close()
	held := 0
	for _, c := range m.Centers() {
		held += len(c.LeasesByTag("g1"))
	}
	if held == 0 {
		t.Fatal("the crashed run holds no lease")
	}

	d2 := newTestDaemon(t, mutate)
	defer drain(t, d2)
	tick, rec, ok := d2.Reconciliation("g1")
	if !ok || tick != 0 || rec != (operator.Reconciliation{Orphaned: held}) {
		t.Fatalf("restart reconciled tick %d %+v (restored %v), want tick 0 and %d orphans", tick, rec, ok, held)
	}
	for _, c := range m.Centers() {
		if n := len(c.LeasesByTag("g1")); n != 0 {
			t.Fatalf("%s still holds %d leases of the crashed run", c.Name, n)
		}
	}
}

func TestDrainDeadlineThenRecovery(t *testing.T) {
	hot := fastHot()
	hot.ObserveDelayMS = 200 // each queued sample holds the drain 200ms
	d := newTestDaemon(t, func(c *Config) {
		c.QueueDepth = 8
		c.Hot = hot
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for i := 0; i < 4; i++ {
		resp := postObserve(t, srv.URL, "g1", []float64{10, 20})
		resp.Body.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := d.Drain(ctx)
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("drain err = %v, want ErrDrainTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want the context cause wrapped", err)
	}
	// cmd/mmogd hard-exits here; a caller that chooses to wait again
	// instead gets the completed shutdown once the workers flush.
	drain(t, d)
}

func TestReloadInvalidKeepsActiveConfig(t *testing.T) {
	d := newTestDaemon(t, nil)
	defer drain(t, d)
	before := d.Hot()

	bad := before
	bad.FaultRejectProb = 1.5
	if err := d.Reload(bad); err == nil {
		t.Fatal("Reload accepted fault_reject_prob = 1.5")
	}
	if !reflect.DeepEqual(d.Hot(), before) {
		t.Fatalf("rejected reload still swapped config: %+v", d.Hot())
	}
}

// TestTickReloadMovesRequestHorizon reloads tick_seconds from 600 to
// 1800 after 20 of 40 steady observations (four zones of 900
// entities). Each observation must then lease for the instant of the
// next one, 1800 s on, as a daemon started at 1800 s does: the two
// must count the same disruptive ticks (none, as the cold start is not
// scored) and the same shortfall. Sized for the startup tick instead, the hour-long
// leases run out before the next observation on every second tick.
func TestTickReloadMovesRequestHorizon(t *testing.T) {
	run := func(before, after float64) (events int, shortfall float64) {
		hot := fastHot()
		hot.TickSeconds = before
		d := newTestDaemon(t, func(c *Config) { c.Hot = hot })
		defer drain(t, d)
		g := d.games["g1"]
		for i := 0; i < 40; i++ {
			if i == 20 {
				waitTicks(t, d, "g1", 20)
				hot.TickSeconds = after
				if err := d.Reload(hot); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := d.enqueue(g, &[]float64{900, 900, 900, 900}, 0); err != nil {
				t.Fatal(err)
			}
		}
		waitTicks(t, d, "g1", 40)
		d.ecoMu.Lock()
		defer d.ecoMu.Unlock()
		m := g.op.Metrics()
		return m.Events, m.AvgShortfall
	}
	events, shortfall := run(600, 1800)
	wantEvents, wantShortfall := run(1800, 1800)
	if events != wantEvents || shortfall != wantShortfall {
		t.Fatalf("after reloading to 1800 s: %d disruptive ticks, mean shortfall %v; started at 1800 s: %d, %v",
			events, shortfall, wantEvents, wantShortfall)
	}
}

func TestConfigPostPartialMerge(t *testing.T) {
	d := newTestDaemon(t, nil)
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	before := d.Hot()

	// A partial body tweaks only the named fields.
	resp, err := http.Post(srv.URL+"/v1/config", "application/json",
		strings.NewReader(`{"checkpoint_every": 7, "fault_dropout_prob": 0.25}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("valid config POST -> %d", resp.StatusCode)
	}
	after := d.Hot()
	if after.CheckpointEvery != 7 || after.FaultDropoutProb != 0.25 {
		t.Fatalf("partial reload did not apply: %+v", after)
	}
	if after.TickSeconds != before.TickSeconds || after.ObserveTimeoutMS != before.ObserveTimeoutMS {
		t.Fatalf("partial reload clobbered unnamed fields: %+v", after)
	}

	// An invalid candidate is rejected with the typed error and the
	// active config stays as it was.
	resp, err = http.Post(srv.URL+"/v1/config", "application/json",
		strings.NewReader(`{"tick_seconds": -5}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config POST -> %d, want 400", resp.StatusCode)
	}
	if code := decodeError(t, resp); code != "invalid_config" {
		t.Fatalf("invalid config code %q", code)
	}
	if !reflect.DeepEqual(d.Hot(), after) {
		t.Fatalf("rejected POST still swapped config: %+v", d.Hot())
	}

	// An unknown field is a malformed body, not a silent no-op.
	resp, err = http.Post(srv.URL+"/v1/config", "application/json",
		strings.NewReader(`{"not_a_knob": true}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field config POST -> %d, want 400", resp.StatusCode)
	}
	if code := decodeError(t, resp); code != "malformed_body" {
		t.Fatalf("unknown-field code %q", code)
	}

	// GET /v1/config reports the active document.
	resp, err = http.Get(srv.URL + "/v1/config")
	if err != nil {
		t.Fatal(err)
	}
	var got HotConfig
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !reflect.DeepEqual(got, d.Hot()) {
		t.Fatalf("GET /v1/config = %+v, want %+v", got, d.Hot())
	}
}

// TestConfigGetPostRoundTrip pins that GET /v1/config emits a document
// the daemon itself accepts: after a partial merge, POSTing the GET
// body back re-validates cleanly and reproduces the active HotConfig
// bit for bit — the observable config is never a lossy rendering of
// the real one.
func TestConfigGetPostRoundTrip(t *testing.T) {
	hot := fastHot()
	hot.BreakerThreshold = 5
	hot.BreakerCooldown = 3
	hot.SLORules = []slo.RuleConfig{breachRule()}
	d := newTestDaemon(t, func(c *Config) { c.Hot = hot })
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Perturb the active config through a partial merge first, so the
	// round trip covers a state no static file ever described.
	resp, err := http.Post(srv.URL+"/v1/config", "application/json",
		strings.NewReader(`{"observe_delay_ms": 1, "fault_partial_prob": 0.125}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial merge -> %d", resp.StatusCode)
	}
	merged := d.Hot()

	get := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/config")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	doc := get()

	// The GET document POSTs back without tripping validation or the
	// unknown-field guard.
	resp, err = http.Post(srv.URL+"/v1/config", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("round-trip POST -> %d", resp.StatusCode)
	}
	if !reflect.DeepEqual(d.Hot(), merged) {
		t.Fatalf("round trip changed the active config:\n%+v\n%+v", d.Hot(), merged)
	}
	if again := get(); again != doc {
		t.Fatalf("GET not stable across its own round trip:\n%s\n%s", doc, again)
	}
}

// Fault injection is hot-swappable: with reject probability 1 no grant
// can land, with 0 the next tick provisions normally.
func TestFaultInjectionHotSwap(t *testing.T) {
	hot := fastHot()
	hot.FaultRejectProb = 1
	d := newTestDaemon(t, func(c *Config) { c.Hot = hot })
	defer drain(t, d)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	resp := postObserve(t, srv.URL, "g1", []float64{100, 50})
	resp.Body.Close()
	waitTicks(t, d, "g1", 1)
	if n := leaseCount(t, srv.URL); n != 0 {
		t.Fatalf("%d leases granted under reject_prob=1", n)
	}

	ok := hot
	ok.FaultRejectProb = 0
	if err := d.Reload(ok); err != nil {
		t.Fatal(err)
	}
	resp = postObserve(t, srv.URL, "g1", []float64{100, 50})
	resp.Body.Close()
	waitTicks(t, d, "g1", 2)
	if n := leaseCount(t, srv.URL); n == 0 {
		t.Fatal("no leases after clearing the reject fault")
	}
}

func leaseCount(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/leases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Count
}
