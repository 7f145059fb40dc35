package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mmogdc/internal/obs"
	"mmogdc/internal/slo"
)

// breachRule is the forced-breach burn-rate rule the SLO tests arm:
// with fault_reject_prob=1 every acquisition is vetoed, the shortfall
// persists, and the disruptive-tick ratio saturates far above a 1%
// objective — both windows burn immediately.
func breachRule() slo.RuleConfig {
	return slo.RuleConfig{
		Name:         "breach-burn",
		Signal:       slo.SignalBreachRate,
		Objective:    0.01,
		ShortWindowS: 2,
		LongWindowS:  8,
		BurnFactor:   1,
	}
}

// postObserveTraced posts one observation carrying a W3C traceparent,
// returning the status code.
func postObserveTraced(t *testing.T, url, game, traceparent string, values []float64) int {
	t.Helper()
	body, _ := json.Marshal(ObserveRequest{Game: game, Values: values})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/observe", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDaemonRequestTracing pins the cross-process span chain: a client
// traceparent parents the daemon.request span, which parents both the
// daemon.queue_wait and daemon.observe spans, which in turn parent the
// operator.observe cycle and its operator.acquire child. It also pins
// the per-endpoint request histogram (and that health probes are
// excluded from it).
func TestDaemonRequestTracing(t *testing.T) {
	o := obs.New()
	o.EnableTracing()
	d := newTestDaemon(t, func(c *Config) { c.Obs = o })
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	const clientSpan = obs.SpanID(0xaa)
	tp := obs.Traceparent(0xbeef, clientSpan)
	if code := postObserveTraced(t, srv.URL, "g1", tp, []float64{800, 600, 400}); code != http.StatusAccepted {
		t.Fatalf("traced observe -> %d", code)
	}
	waitTicks(t, d, "g1", 1)
	// A health probe and an untraced read endpoint for the histogram
	// exclusion / inclusion checks.
	getBody(t, srv.URL+"/healthz")
	getBody(t, srv.URL+"/v1/forecast?game=g1")
	drain(t, d)

	spans := map[string]obs.SpanRec{}
	for _, r := range o.Tracer.Records() {
		if _, dup := spans[r.Name]; !dup {
			spans[r.Name] = r
		}
	}
	request, ok := spans["daemon.request"]
	if !ok {
		t.Fatal("no daemon.request span recorded")
	}
	if request.Parent != clientSpan {
		t.Fatalf("daemon.request parent = %#x, want client span %#x", request.Parent, clientSpan)
	}
	for _, name := range []string{"daemon.queue_wait", "daemon.observe"} {
		s, ok := spans[name]
		if !ok {
			t.Fatalf("no %s span recorded", name)
		}
		if s.Parent != request.ID {
			t.Fatalf("%s parent = %d, want daemon.request %d", name, s.Parent, request.ID)
		}
	}
	observe, ok := spans["operator.observe"]
	if !ok {
		t.Fatal("no operator.observe span recorded")
	}
	if observe.Parent != spans["daemon.observe"].ID {
		t.Fatalf("operator.observe parent = %d, want daemon.observe %d",
			observe.Parent, spans["daemon.observe"].ID)
	}
	if acquire, ok := spans["operator.acquire"]; !ok {
		t.Fatal("no operator.acquire span recorded")
	} else if acquire.Parent != observe.ID {
		t.Fatalf("operator.acquire parent = %d, want operator.observe %d", acquire.Parent, observe.ID)
	}
	if request.Value != float64(http.StatusAccepted) {
		t.Fatalf("daemon.request value = %v, want %d", request.Value, http.StatusAccepted)
	}

	text := o.Registry.PrometheusText()
	for _, want := range []string{
		`mmogdc_daemon_http_request_seconds_count{code="202",path="/v1/observe"}`,
		`mmogdc_daemon_http_request_seconds_count{code="200",path="/v1/forecast"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if strings.Contains(text, `path="/healthz"`) {
		t.Error("health probe leaked into the request histogram")
	}
}

// TestDaemonSLOAlertFires forces an SLA-breach episode (every grant
// rejected) under an armed breach-rate burn rule and checks the engine
// fires: an slo_alert event in the recorder and the active gauge at 1.
// Removing the rules on reload must deactivate the alert.
func TestDaemonSLOAlertFires(t *testing.T) {
	o := obs.New()
	d := newTestDaemon(t, func(c *Config) {
		c.Obs = o
		h := fastHot()
		h.FaultRejectProb = 1
		h.SLORules = []slo.RuleConfig{breachRule()}
		c.Hot = h
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for i := 0; i < 10; i++ {
		resp := postObserve(t, srv.URL, "g1", []float64{800, 600, 400})
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("observe %d -> %d", i, resp.StatusCode)
		}
	}
	waitTicks(t, d, "g1", 10)

	var firingTick = -1
	for _, e := range o.Recorder.Events() {
		if e.Kind == obs.EventSLOAlert && e.Detail == "firing" && e.Subject == "breach-burn" {
			firingTick = e.Tick
			break
		}
	}
	if firingTick < 0 {
		t.Fatal("no slo_alert firing event recorded")
	}
	if firingTick > 4 {
		t.Errorf("alert fired at tick %d, want early detection (<= 4)", firingTick)
	}
	active := o.Registry.Gauge("mmogdc_slo_alert_active", "", obs.L("rule", "breach-burn"))
	if active.Value() != 1 {
		t.Fatalf("mmogdc_slo_alert_active = %v, want 1", active.Value())
	}

	// Dropping the rules on reload tears the engine down and clears
	// the alert state.
	h := d.Hot()
	h.SLORules = nil
	if err := d.Reload(h); err != nil {
		t.Fatal(err)
	}
	if active.Value() != 0 {
		t.Fatalf("mmogdc_slo_alert_active after rules removed = %v, want 0", active.Value())
	}
	// The daemon keeps observing without an engine.
	resp := postObserve(t, srv.URL, "g1", []float64{800, 600, 400})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("observe after rule removal -> %d", resp.StatusCode)
	}
	drain(t, d)
}

// TestDaemonObsBitIdentical runs the same observation sequence through
// a plain daemon and one with tracing, SLO rules, and runtime
// telemetry all enabled, and requires byte-identical /v1/forecast and
// /v1/leases responses: the observability surface is write-only.
func TestDaemonObsBitIdentical(t *testing.T) {
	run := func(instrumented bool) (string, string) {
		var mutate func(*Config)
		if instrumented {
			o := obs.New()
			o.EnableTracing()
			o.EnableRuntimeMetrics()
			mutate = func(c *Config) {
				c.Obs = o
				c.ExplainDepth = 32
				h := fastHot()
				h.SLORules = []slo.RuleConfig{breachRule()}
				c.Hot = h
			}
		}
		d := newTestDaemon(t, mutate)
		srv := httptest.NewServer(d.Handler())
		defer srv.Close()
		tp := obs.Traceparent(7, obs.SpanID(9))
		for i := 0; i < 8; i++ {
			values := []float64{800 + float64(i*40), 600, 400}
			if code := postObserveTraced(t, srv.URL, "g1", tp, values); code != http.StatusAccepted {
				t.Fatalf("observe %d -> %d", i, code)
			}
		}
		waitTicks(t, d, "g1", 8)
		forecast := getBody(t, srv.URL+"/v1/forecast?game=g1")
		leases := getBody(t, srv.URL+"/v1/leases?game=g1")
		drain(t, d)
		return forecast, leases
	}

	plainF, plainL := run(false)
	instF, instL := run(true)
	if plainF != instF {
		t.Errorf("forecast diverged with observability on:\n%s\n%s", plainF, instF)
	}
	if plainL != instL {
		t.Errorf("leases diverged with observability on:\n%s\n%s", plainL, instL)
	}
	if plainF == "" || plainL == "" {
		t.Fatal("empty responses")
	}
}

// TestSLOReadingMatchesRegistry arms all five SLO signals on a faulted
// run (sheds, observe timeouts, grant rejections, breaches) and checks
// the Reading the daemon hands the engine against the series the
// daemon and the operator publish, which must hold the same counts.
func TestSLOReadingMatchesRegistry(t *testing.T) {
	o := obs.New()
	var rules []slo.RuleConfig
	for _, sig := range []string{slo.SignalShedRate, slo.SignalObserveLatency,
		slo.SignalObserveFailures, slo.SignalBreachRate, slo.SignalRejectionRate} {
		rules = append(rules, slo.RuleConfig{Name: sig, Signal: sig, Objective: 0.01,
			LatencyObjectiveMS: 1, ShortWindowS: 2, LongWindowS: 8})
	}
	d := newTestDaemon(t, func(c *Config) {
		c.Obs = o
		c.QueueDepth = 1
		c.Predictor = slowPredictor(20 * time.Millisecond)
		h := fastHot()
		h.ObserveTimeoutMS = 5
		h.FaultRejectProb = 0.5
		h.SLORules = rules
		c.Hot = h
	})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	g := d.games["g1"]

	post := func(load float64) int {
		return postObserveTraced(t, srv.URL, "g1", "", []float64{load})
	}
	// Paced samples of rising load lease more every pass and meet
	// rejections; every fourth is slow and times out.
	for i := 0; i < 16; i++ {
		load := 200 + 50*float64(i)
		if i%4 == 3 {
			load = slowLoad
		}
		if code := post(load); code != http.StatusAccepted {
			t.Fatalf("observe %d -> %d", i, code)
		}
		waitPasses(t, g, g.mIngest.Value())
	}
	// A burst behind a slow pass: the one-slot queue sheds.
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("the one-slot queue never shed")
		}
		load := 200.0
		if i == 0 {
			load = slowLoad
		}
		code := post(load)
		if code == http.StatusTooManyRequests {
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("burst observe %d -> %d", i, code)
		}
	}
	waitPasses(t, g, g.mIngest.Value())

	d.ecoMu.Lock()
	got := g.reading(g.op.Metrics())
	d.ecoMu.Unlock()
	r, lg := o.Registry, obs.L("game", "g1")
	want := slo.Reading{
		Shed:       r.Counter("mmogdc_daemon_shed_total", "", lg).Value(),
		Ingested:   r.Counter("mmogdc_daemon_ingest_total", "", lg).Value(),
		Timeouts:   r.Counter("mmogdc_daemon_observe_timeouts_total", "", lg).Value(),
		Errors:     r.Counter("mmogdc_daemon_observe_errors_total", "", lg).Value(),
		Loop:       r.Histogram("mmogdc_daemon_observe_loop_seconds", "", obs.TimeBuckets, lg),
		Ticks:      int(r.Counter("mmogdc_operator_ticks_total", "", lg).Value()),
		Events:     int(r.Counter("mmogdc_operator_disruptive_ticks_total", "", lg).Value()),
		Rejections: int(r.Counter("mmogdc_operator_rejections_total", "", lg).Value()),
	}
	if got != want {
		t.Fatalf("the daemon's reading differs from the registry:\n got %+v\nwant %+v", got, want)
	}
	if got.Shed == 0 || got.Timeouts == 0 || got.Events == 0 || got.Rejections == 0 {
		t.Fatalf("the run did not exercise every signal: %+v", got)
	}
	drain(t, d)
}
