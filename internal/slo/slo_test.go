package slo

import (
	"strings"
	"testing"
	"time"

	"mmogdc/internal/obs"
)

var t0 = time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)

// active reads the rule's mmogdc_slo_alert_active gauge: 1 while its
// alert fires, 0 otherwise.
func active(reg *obs.Registry, rule string) float64 {
	return reg.Gauge("mmogdc_slo_alert_active", "", obs.L("rule", rule)).Value()
}

func breachRule(short, long float64) RuleConfig {
	return RuleConfig{
		Name: "breach", Signal: SignalBreachRate, Game: "g",
		Objective: 0.01, ShortWindowS: short, LongWindowS: long, BurnFactor: 1,
	}
}

func TestValidateRules(t *testing.T) {
	good := breachRule(60, 600)
	if err := ValidateRules([]RuleConfig{good}); err != nil {
		t.Fatal(err)
	}
	bad := []RuleConfig{
		{},
		{Name: "x", Signal: "nope", Objective: 0.1, ShortWindowS: 1, LongWindowS: 2},
		{Name: "x", Signal: SignalShedRate, Objective: 0, ShortWindowS: 1, LongWindowS: 2},
		{Name: "x", Signal: SignalShedRate, Objective: 1, ShortWindowS: 1, LongWindowS: 2},
		{Name: "x", Signal: SignalShedRate, Objective: 0.1, ShortWindowS: 0, LongWindowS: 2},
		{Name: "x", Signal: SignalShedRate, Objective: 0.1, ShortWindowS: 2, LongWindowS: 2},
		{Name: "x", Signal: SignalObserveLatency, Objective: 0.1, ShortWindowS: 1, LongWindowS: 2},
	}
	for i, rc := range bad {
		if err := ValidateRules([]RuleConfig{rc}); err == nil {
			t.Errorf("bad rule %d accepted: %+v", i, rc)
		}
	}
	if err := ValidateRules([]RuleConfig{good, good}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate names accepted: %v", err)
	}
}

// A sustained full-burn signal must fire on the second evaluation —
// the first reading is only a baseline — even though the long window
// is far from full: detection lag is what the engine exists to
// minimize.
func TestEngineFiresFastAndResolves(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(0)
	e, err := NewEngine([]RuleConfig{breachRule(3, 60)}, reg, rec, "g")
	if err != nil {
		t.Fatal(err)
	}

	now := t0
	var r Reading
	stepBad := func(tick int) {
		r.Ticks++
		r.Events++
		e.Eval("g", tick, now, r)
		now = now.Add(time.Second)
	}
	stepGood := func(tick int) {
		r.Ticks++
		e.Eval("g", tick, now, r)
		now = now.Add(time.Second)
	}

	stepBad(0)
	if v := active(reg, "breach"); v != 0 {
		t.Fatalf("fired on the baseline reading: active gauge = %v", v)
	}
	stepBad(1)
	if v := active(reg, "breach"); v != 1 {
		t.Fatalf("not firing after 2 bad ticks: active gauge = %v, want 1", v)
	}

	// Recovery: once the short window holds only good ticks the alert
	// resolves, regardless of the still-burning long window.
	for tick := 2; tick < 7; tick++ {
		stepGood(tick)
	}
	if v := active(reg, "breach"); v != 0 {
		t.Fatalf("still firing after recovery: active gauge = %v, want 0", v)
	}

	var firing, resolved []obs.Event
	for _, ev := range rec.Events() {
		if ev.Kind != obs.EventSLOAlert {
			continue
		}
		switch ev.Detail {
		case "firing":
			firing = append(firing, ev)
		case "resolved":
			resolved = append(resolved, ev)
		}
	}
	if len(firing) != 1 || firing[0].Tick != 1 || firing[0].Subject != "breach" {
		t.Fatalf("firing events: %+v", firing)
	}
	if len(resolved) != 1 || resolved[0].Tick <= firing[0].Tick {
		t.Fatalf("resolved events: %+v", resolved)
	}
	if firing[0].Value < 1 {
		t.Fatalf("firing burn = %v, want >= factor 1", firing[0].Value)
	}
}

// A transient blip must not fire: the short window burns but the long
// window dilutes it below the factor.
func TestEngineLongWindowSuppressesBlips(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(0)

	// Objective 0.5 with burn factor 2: fire only when essentially
	// every tick in BOTH windows is bad.
	rule := RuleConfig{Name: "r", Signal: SignalBreachRate, Game: "g",
		Objective: 0.5, ShortWindowS: 2, LongWindowS: 10, BurnFactor: 2}
	e, err := NewEngine([]RuleConfig{rule}, reg, rec, "g")
	if err != nil {
		t.Fatal(err)
	}

	now := t0
	var r Reading
	for tick := 0; tick < 20; tick++ {
		r.Ticks++
		if tick == 10 { // one bad tick in twenty
			r.Events++
		}
		e.Eval("g", tick, now, r)
		now = now.Add(time.Second)
	}
	if v := active(reg, "r"); v != 0 {
		t.Fatalf("blip fired the alert: active gauge = %v", v)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == obs.EventSLOAlert {
			t.Fatalf("unexpected alert event: %+v", ev)
		}
	}
}

func TestEngineLatencySignal(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(0)
	r := Reading{Loop: reg.Histogram("loop_seconds", "", obs.TimeBuckets)}

	rule := RuleConfig{Name: "slow", Signal: SignalObserveLatency, Game: "g",
		Objective: 0.1, LatencyObjectiveMS: 100, ShortWindowS: 2, LongWindowS: 8}
	e, err := NewEngine([]RuleConfig{rule}, reg, rec, "g")
	if err != nil {
		t.Fatal(err)
	}

	now := t0
	// Baseline of fast loops, then a run of slow ones.
	for tick := 0; tick < 10; tick++ {
		if tick < 4 {
			r.Loop.Observe(0.001)
		} else {
			r.Loop.Observe(1.5) // far over the 100ms objective
		}
		e.Eval("g", tick, now, r)
		now = now.Add(time.Second)
	}
	if v := active(reg, "slow"); v != 1 {
		t.Fatalf("latency rule not firing: active gauge = %v", v)
	}
}

func TestEngineDefaultGameAndDeactivate(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(0)

	rule := breachRule(2, 8)
	rule.Game = "" // resolves to the default game
	e, err := NewEngine([]RuleConfig{rule}, reg, rec, "live")
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	var r Reading
	for tick := 0; tick < 3; tick++ {
		r.Ticks++
		r.Events++
		e.Eval("live", tick, now, r)
		now = now.Add(time.Second)
	}
	if v := active(reg, "breach"); v != 1 {
		t.Fatalf("default-game rule not firing: active gauge = %v", v)
	}
	e.Deactivate()
	if v := active(reg, "breach"); v != 0 {
		t.Fatalf("active gauge = %v after Deactivate", v)
	}
}

func TestEngineNilSafety(t *testing.T) {
	var e *Engine
	e.Eval("g", 0, t0, Reading{})
	e.Deactivate()
}

func TestNewEngineRejectsBadRules(t *testing.T) {
	if _, err := NewEngine([]RuleConfig{{Name: "x"}}, obs.NewRegistry(), nil, "g"); err == nil {
		t.Fatal("invalid rule compiled")
	}
}

// TestSignalCounts pins which counts of a Reading each signal divides.
func TestSignalCounts(t *testing.T) {
	loop := obs.NewRegistry().Histogram("loop_seconds", "", obs.TimeBuckets)
	for _, v := range []float64{0.0005, 0.002, 0.5} {
		loop.Observe(v)
	}
	r := Reading{Shed: 3, Ingested: 17, Timeouts: 2, Errors: 1, Loop: loop,
		Ticks: 16, Events: 4, Rejections: 5}
	for _, c := range []struct {
		signal     string
		bad, total float64
	}{
		{SignalShedRate, 3, 20},
		{SignalObserveLatency, 2, 3},
		{SignalObserveFailures, 3, 17},
		{SignalBreachRate, 4, 16},
		{SignalRejectionRate, 5, 16},
	} {
		rs := &ruleState{cfg: RuleConfig{Signal: c.signal}, bound: 0.001}
		if bad, total := rs.counts(r); bad != c.bad || total != c.total {
			t.Errorf("%s: (bad, total) = (%v, %v), want (%v, %v)", c.signal, bad, total, c.bad, c.total)
		}
	}
}
