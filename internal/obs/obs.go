package obs

import "time"

// Obs bundles one run's observability: the metrics registry, the
// flight recorder, the optional span tracer, and the clock that times
// instrumented sections. A nil *Obs disables everything — the
// accessors return nil instruments whose methods are allocation-free
// no-ops, so engines thread a single pointer and never branch per
// metric.
type Obs struct {
	Registry *Registry
	Recorder *Recorder
	// Tracer records causally-linked spans when non-nil. Tracing is
	// opt-in (EnableTracing) even on an otherwise enabled bundle: span
	// recording is heavier than counters, and a nil Tracer keeps the
	// span call sites allocation-free.
	Tracer *Tracer
	// Runtime samples the Go runtime's self-telemetry when non-nil
	// (EnableRuntimeMetrics); the HTTP handler refreshes it at scrape
	// time. Off by default for the same reason tracing is.
	Runtime *RuntimeSampler
	// Clock times instrumented sections; nil falls back to System.
	// Tests inject a ManualClock for deterministic latency histograms.
	Clock Clock
}

// New builds an enabled observability bundle with a fresh registry, a
// default-capacity flight recorder, and the system clock. Tracing
// stays off until EnableTracing.
func New() *Obs {
	return &Obs{Registry: NewRegistry(), Recorder: NewRecorder(0), Clock: System}
}

// EnableTracing attaches a span tracer retaining up to
// DefaultTracerCapacity records, sharing the bundle's clock, and
// returns it.
func (o *Obs) EnableTracing() *Tracer {
	if o == nil {
		return nil
	}
	o.Tracer = NewTracer(0)
	o.Tracer.Clock = o.Clock
	return o.Tracer
}

// EnableRuntimeMetrics attaches a runtime/metrics-backed sampler
// publishing GC pause, heap, goroutine, and scheduler-latency gauges
// into the bundle's registry, timed by the bundle's clock, and
// returns it. The obs HTTP handler samples it on every /metrics
// scrape; callers may also Sample on their own cadence.
func (o *Obs) EnableRuntimeMetrics() *RuntimeSampler {
	if o == nil {
		return nil
	}
	o.Runtime = NewRuntimeSampler(o.Registry, o.Clock)
	return o.Runtime
}

// SampleRuntime refreshes the runtime gauges if the sampler is
// enabled; a no-op otherwise.
func (o *Obs) SampleRuntime() {
	if o == nil {
		return
	}
	o.Runtime.Sample()
}

// Reg returns the registry (nil when disabled).
func (o *Obs) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}

// Rec returns the flight recorder (nil when disabled).
func (o *Obs) Rec() *Recorder {
	if o == nil {
		return nil
	}
	return o.Recorder
}

// Trc returns the span tracer (nil when disabled or tracing is off).
func (o *Obs) Trc() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// SyncRecorderGauges publishes the recorder's loss accounting —
// ring-overwritten events and failed sink writes — as gauges, so a
// /metrics scrape or -metrics-out snapshot makes silent event loss
// visible. Called by the HTTP handler at scrape time and by summary
// writers before snapshotting.
func (o *Obs) SyncRecorderGauges() {
	if o == nil {
		return
	}
	rec := o.Recorder
	o.Registry.Gauge("mmogdc_recorder_dropped_events",
		"Flight-recorder events overwritten by the bounded ring.").Set(float64(rec.Dropped()))
	o.Registry.Gauge("mmogdc_recorder_sink_errors",
		"Flight-recorder JSONL sink writes that failed.").Set(float64(rec.SinkErrs()))
}

// Now reads the bundle's clock. Disabled bundles return the zero Time
// without touching any clock, keeping the disabled path free of
// time.Now calls.
func (o *Obs) Now() time.Time {
	if o == nil {
		return time.Time{}
	}
	if o.Clock == nil {
		return time.Now()
	}
	return o.Clock.Now()
}
