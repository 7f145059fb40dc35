package main

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0
// (the daemon's spans on a sim workload, core's phases on a daemon
// workload). README.md says which end-to-end metric each one moves.
var perLayer = []struct{ name, unit string }{
	// internal/core: tick phases from mmogdc_tick_phase_duration_seconds.
	{"core.observe_s", "s"},
	{"core.reduce_s", "s"},
	{"core.acquire_s", "s"},
	{"core.tick_other_s", "s"},
	{"core.tick_coverage", "ratio"},
	// internal/faults through core.
	{"core.failovers", "count"},
	{"core.brownout_ticks", "count"},
	// The paper's outputs: core.Result, or the in-process operators.
	{"paper.cpu_over_alloc_pct", "%"},
	{"paper.under_alloc_events", "count"},
	// internal/predict: a timing wrapper around the Factory.
	{"predict.calls", "count"},
	{"predict.ns_per_call", "ns"},
	// internal/ecosystem: grants and acquire time per grant.
	{"ecosystem.grants", "count"},
	{"ecosystem.us_per_grant", "us"},
	// internal/checkpoint and core/checkpoint.go.
	{"checkpoint.writes", "count"},
	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.write_ms", "ms"},
	// internal/daemon: mmogd -trace-out spans (p50s), its observe-loop
	// histogram, the 202 bodies, and an in-process httptest replay.
	{"daemon.request_us", "us"},
	{"daemon.queue_wait_us", "us"},
	{"daemon.observe_us", "us"},
	{"daemon.lock_other_us", "us"},
	{"daemon.loop_ms", "ms"},
	{"daemon.queued_p99", "count"},
	{"daemon.handler_us", "us"},
	{"daemon.allocs_per_sample", "allocs"},
	{"daemon.bytes_per_sample", "B"},
	// internal/operator: spans (p50s) and an in-process replay.
	{"operator.observe_us", "us"},
	{"operator.acquire_us", "us"},
	{"operator.inproc_us", "us"},
	{"operator.allocs_per_observe", "allocs"},
	{"operator.bytes_per_observe", "B"},
	// net/http and loopback: client span minus the matched
	// daemon.request span.
	{"client.transport_us", "us"},
	// Go runtime and internal/obs.
	{"runtime.gc_per_1k", "count"},
	{"obs.overhead_pct", "%"},
}

// fillPerLayer reports 0 for every per-layer metric the workload did
// not measure.
func (r *run) fillPerLayer() {
	for _, m := range perLayer {
		if _, ok := r.res.Metrics[m.name]; !ok {
			r.res.Metrics[m.name] = metric{Value: 0, Unit: m.unit}
		}
	}
}
