package operator

import (
	"math"
	"testing"
	"time"

	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
)

// TestObsBridgesMetrics drives an operator with monitoring dropouts
// enabled, on an ecosystem that covers the load and on one that starves
// it, and checks the registry counters and the recorder's breach events
// land on exactly the values Metrics reports, and that enabling obs
// changes no metric.
func TestObsBridgesMetrics(t *testing.T) {
	run := func(o *obs.Obs, machines int) Metrics {
		op, err := New(Config{
			Game:      mmog.NewGame("op", mmog.GenreMMORPG),
			Origin:    geo.London,
			Predictor: predict.NewLastValue(),
			Matcher:   testMatcher(machines),
			Obs:       o,
		})
		if err != nil {
			t.Fatal(err)
		}
		now := t0
		for i := 0; i < 30; i++ {
			loads := []float64{800, 600, 400}
			if i%7 == 3 {
				loads[1] = math.NaN() // monitoring dropout
			}
			if err := op.Observe(now, loads); err != nil {
				t.Fatal(err)
			}
			now = now.Add(2 * time.Minute)
		}
		return op.Metrics()
	}

	for _, tc := range []struct {
		name     string
		machines int
	}{{"steady", 10}, {"starved", 0}} {
		plain := run(nil, tc.machines)
		o := obs.New()
		instrumented := run(o, tc.machines)
		if plain != instrumented {
			t.Fatalf("%s: obs changed operator metrics:\n%+v\n%+v", tc.name, plain, instrumented)
		}

		r := o.Registry
		g := obs.L("game", "op")
		breaches, drops := 0, 0
		for _, e := range o.Recorder.Events() {
			switch e.Kind {
			case obs.EventBreach:
				breaches++
			case obs.EventDropped:
				drops++
			}
		}
		checks := []struct {
			name string
			got  int64
			want int
		}{
			{"mmogdc_operator_ticks_total", r.Counter("mmogdc_operator_ticks_total", "", g).Value(), instrumented.Ticks},
			{"mmogdc_operator_dropped_samples_total", r.Counter("mmogdc_operator_dropped_samples_total", "", g).Value(), instrumented.DroppedSamples},
			{"mmogdc_operator_rejections_total", r.Counter("mmogdc_operator_rejections_total", "", g).Value(), instrumented.Rejections},
			{"mmogdc_operator_retries_total", r.Counter("mmogdc_operator_retries_total", "", g).Value(), instrumented.Retries},
			{"mmogdc_operator_failovers_total", r.Counter("mmogdc_operator_failovers_total", "", g).Value(), instrumented.Failovers},
			{"mmogdc_operator_disruptive_ticks_total", r.Counter("mmogdc_operator_disruptive_ticks_total", "", g).Value(), instrumented.Events},
			{"sla_breach events", int64(breaches), instrumented.Events},
		}
		for _, c := range checks {
			if c.got != int64(c.want) {
				t.Errorf("%s: %s = %d, want %d (Metrics parity)", tc.name, c.name, c.got, c.want)
			}
		}
		if instrumented.DroppedSamples == 0 {
			t.Fatalf("%s: scenario never dropped a sample", tc.name)
		}
		if tc.name == "starved" && instrumented.Events == 0 {
			t.Fatal("the starved scenario never breached")
		}
		if h := r.Histogram("mmogdc_operator_observe_duration_seconds", "", obs.TimeBuckets, g); h.Count() != int64(instrumented.Ticks) {
			t.Errorf("%s: observe duration count = %d, want %d", tc.name, h.Count(), instrumented.Ticks)
		}
		if lg := r.Gauge("mmogdc_operator_load_cpu_units", "", g); lg.Value() <= 0 {
			t.Errorf("%s: load gauge = %v, want > 0", tc.name, lg.Value())
		}
		if drops == 0 {
			t.Errorf("%s: flight recorder has no dropped-sample events", tc.name)
		}
	}
}

// TestObserveUntilSpanParent pins the request-tracing contract: the
// parent span handed to ObserveUntil (the daemon's per-request span)
// becomes the parent of the operator.observe cycle span, and the
// operator.acquire span is that cycle's child — so a merged trace
// chains client request -> daemon -> observe -> acquire.
func TestObserveUntilSpanParent(t *testing.T) {
	o := obs.New()
	o.Clock = obs.NewManualClock(t0, time.Millisecond)
	o.EnableTracing()
	op, err := New(Config{
		Game:      mmog.NewGame("op", mmog.GenreMMORPG),
		Origin:    geo.London,
		Predictor: predict.NewLastValue(),
		Matcher:   testMatcher(10),
		Obs:       o,
	})
	if err != nil {
		t.Fatal(err)
	}

	const reqSpan = obs.SpanID(7777)
	// First observe with real demand: forecasts a shortfall and must
	// acquire leases, producing the acquire span.
	if err := op.ObserveUntil(t0, t0.Add(2*time.Minute), time.Time{}, reqSpan, []float64{800, 600, 400}); err != nil {
		t.Fatal(err)
	}

	var observe, acquire *obs.SpanRec
	for _, r := range o.Tracer.Records() {
		r := r
		switch r.Name {
		case "operator.observe":
			observe = &r
		case "operator.acquire":
			acquire = &r
		}
	}
	if observe == nil || acquire == nil {
		t.Fatalf("missing spans: observe=%v acquire=%v", observe, acquire)
	}
	if observe.Parent != reqSpan {
		t.Fatalf("operator.observe parent = %d, want %d", observe.Parent, reqSpan)
	}
	if acquire.Parent != observe.ID {
		t.Fatalf("operator.acquire parent = %d, want observe span %d", acquire.Parent, observe.ID)
	}
	if acquire.Value < 1 {
		t.Fatalf("acquire span value (leases won) = %v, want >= 1", acquire.Value)
	}

	// Without a parent the cycle stays a root span.
	if err := op.ObserveUntil(t0.Add(2*time.Minute), t0.Add(4*time.Minute), time.Time{}, 0, []float64{800, 600, 400}); err != nil {
		t.Fatal(err)
	}
	recs := o.Tracer.Records()
	last := recs[len(recs)-1]
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Name == "operator.observe" {
			last = recs[i]
			break
		}
	}
	if last.Parent != 0 {
		t.Fatalf("unparented observe cycle has parent %d", last.Parent)
	}
}
