package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mmogdc/internal/daemon"
	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/obs"
	"mmogdc/internal/operator"
	"mmogdc/internal/predict"
)

// traceDaemon is the traced variant of a daemon workload: an untraced
// load (the baseline), the same load against mmogd -trace-out with a
// traceparent on every request, and in-process replays of the daemon
// handler and the operators over the workload's own stream.
func traceDaemon(r *run, spec daemonSpec, bin string, s *stream) error {
	m, err := startMmogd(bin, mmogdArgs(s)...)
	if err != nil {
		return err
	}
	defer m.kill()
	base, err := measure(r, m, s, spec.rate, nil)
	if err != nil {
		return err
	}
	code := m.stop()
	r.check("mmogd exits 0 on SIGTERM drain", code == 0, fmt.Sprintf("untraced: exit %d", code))

	tracePath := filepath.Join(r.out, r.workload+"-mmogd-trace.json")
	mt, err := startMmogd(bin, mmogdArgs(s, "-trace-out", tracePath)...)
	if err != nil {
		return err
	}
	defer mt.kill()
	tr := obs.NewTracer(0)
	tr.SetIDBase(obs.PIDSpanBase())
	tr.TraceID = r.seed
	traced, err := measure(r, mt, s, spec.rate, tr)
	if err != nil {
		return err
	}
	code = mt.stop()
	r.check("mmogd exits 0 on SIGTERM drain", code == 0, fmt.Sprintf("traced: exit %d", code))
	if err := writeTrace(filepath.Join(r.out, r.workload+"-client-trace.json"), tr); err != nil {
		return err
	}
	r.res.Attempted = 2 * len(s.bodies)
	for _, p := range []*phase{base, traced} {
		r.res.Failed += p.load.refused + p.load.failed
	}

	events, err := readTrace(tracePath)
	if err != nil {
		return err
	}
	r.spans(events, tr.Records(), traced)

	acc := float64(base.load.acceptedTotal())
	r.set("daemon.loop_ms", perCall(base.delta("mmogdc_daemon_observe_loop_seconds_sum")*1e3,
		base.delta("mmogdc_daemon_observe_loop_seconds_count")), "ms", "mean admission-to-observed")
	r.set("daemon.queued_p99", quantile(base.load.queued, 0.99), "count", "from 202 bodies")
	r.set("runtime.gc_per_1k", perCall(base.delta("mmogdc_runtime_gc_cycles_total")*1e3, acc), "count", "GC cycles per 1000 samples")
	baseCPU, tracedCPU := best(base.cpuPerTick, false), best(traced.cpuPerTick, false)
	r.set("obs.overhead_pct", perCall(tracedCPU*100, baseCPU)-100, "%",
		fmt.Sprintf("mmogd CPU per sample, best window, traced %.1f us vs untraced %.1f us", tracedCPU, baseCPU))

	if err := inproc(r, s); err != nil {
		return err
	}
	r.fillPerLayer()
	return nil
}

// writeTrace writes a tracer's spans as Chrome trace JSON.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceEvent is the part of one Chrome trace record the analysis reads.
type traceEvent struct {
	Name string  `json:"name"`
	Dur  float64 `json:"dur"` // µs
	Args struct {
		Span    uint64  `json:"span"`
		Parent  uint64  `json:"parent"`
		Subject string  `json:"subject"`
		Value   float64 `json:"value"`
	} `json:"args"`
}

func readTrace(path string) ([]traceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.TraceEvents, nil
}

// spans derives the daemon, operator and transport layers from mmogd's
// span tree: client.request → daemon.request → {daemon.queue_wait,
// daemon.observe → operator.observe → operator.acquire}.
func (r *run) spans(events []traceEvent, client []obs.SpanRec, p *phase) {
	reqByClient := map[uint64]traceEvent{}
	opByParent := map[uint64]traceEvent{}
	var request, queueWait, daemonObs, opObs, acquire []float64
	var observes []traceEvent
	grants, acquireSum, loopSum := 0.0, 0.0, 0.0
	for _, e := range events {
		switch e.Name {
		case "daemon.request":
			if e.Args.Subject == "/v1/observe" {
				reqByClient[e.Args.Parent] = e
				request = append(request, e.Dur)
			}
		case "daemon.queue_wait":
			queueWait = append(queueWait, e.Dur)
			loopSum += e.Dur
		case "daemon.observe":
			daemonObs = append(daemonObs, e.Dur)
			observes = append(observes, e)
			loopSum += e.Dur
		case "operator.observe":
			opObs = append(opObs, e.Dur)
			opByParent[e.Args.Parent] = e
		case "operator.acquire":
			acquire = append(acquire, e.Dur)
			acquireSum += e.Dur
			if e.Args.Value > 0 {
				grants++
			}
		}
	}
	var lockOther []float64
	for _, d := range observes {
		if op, ok := opByParent[d.Args.Span]; ok {
			lockOther = append(lockOther, d.Dur-op.Dur)
		}
	}
	var transport []float64
	nonNegative := 0
	for _, c := range client {
		if req, ok := reqByClient[uint64(c.ID)]; ok {
			t := float64(c.End.Sub(c.Start).Nanoseconds())/1e3 - req.Dur
			transport = append(transport, t)
			if t >= 0 {
				nonNegative++
			}
		}
	}
	n := fmt.Sprintf("p50, n=%d", len(request))
	r.set("daemon.request_us", quantile0(request, 0.5), "us", n)
	r.set("daemon.queue_wait_us", quantile0(queueWait, 0.5), "us", fmt.Sprintf("p50, n=%d", len(queueWait)))
	r.set("daemon.observe_us", quantile0(daemonObs, 0.5), "us", fmt.Sprintf("p50, n=%d", len(daemonObs)))
	r.set("daemon.lock_other_us", quantile0(lockOther, 0.5), "us", "daemon.observe - operator.observe, p50")
	r.set("operator.observe_us", quantile0(opObs, 0.5), "us", fmt.Sprintf("p50, n=%d", len(opObs)))
	r.set("operator.acquire_us", quantile0(acquire, 0.5), "us", fmt.Sprintf("p50, n=%d", len(acquire)))
	r.set("client.transport_us", quantile0(transport, 0.5), "us", fmt.Sprintf("client span - daemon.request, p50, n=%d", len(transport)))
	r.set("ecosystem.grants", grants, "count", "operator.acquire spans that won leases")
	r.set("ecosystem.us_per_grant", perCall(acquireSum, grants), "us", "operator.acquire time / grants")

	// Every answered request has a daemon.request span under its client
	// span, refused ones too; only accepted samples reach the operator.
	acc := p.load.acceptedTotal()
	answered := len(p.load.status) - p.load.failed
	r.check("every request has its span chain", len(transport) == answered && len(lockOther) == acc,
		fmt.Sprintf("%d answered, %d client->request matches; %d accepted, %d observe->operator matches",
			answered, len(transport), acc, len(lockOther)))
	loopHist := p.delta("mmogdc_daemon_observe_loop_seconds_sum") * 1e6
	r.check("queue_wait + observe spans sum to the observe-loop histogram (5%)",
		loopHist > 0 && math.Abs(loopSum-loopHist) <= 0.05*loopHist,
		fmt.Sprintf("spans %.0f us, histogram %.0f us", loopSum, loopHist))
	r.check("transport >= 0 for >= 99% of matched requests",
		len(transport) > 0 && float64(nonNegative) >= 0.99*float64(len(transport)),
		fmt.Sprintf("%d of %d", nonNegative, len(transport)))
}

// quantile0 is quantile reading 0 for an empty sample (a layer the run
// never entered).
func quantile0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// mmogdMatcher builds the two-center ecosystem cmd/mmogd serves from
// with its default of four machines per center.
func mmogdMatcher() *ecosystem.Matcher {
	return ecosystem.NewMatcher([]*datacenter.Center{
		datacenter.NewCenter("local", geo.Amsterdam, 4, datacenter.OptimalPolicy()),
		datacenter.NewCenter("nearby", geo.London, 4, datacenter.OptimalPolicy()),
	})
}

// inproc replays the first r.scale.inprocSamples samples through the
// daemon's handler (daemon.New + Handler().ServeHTTP, no network) and
// through bare operators, with mmogd's last-value predictor.
func inproc(r *run, s *stream) error {
	n := min(len(s.bodies), r.scale.inprocSamples)
	f := predict.NewLastValue()
	fmt.Printf("  in-process replay of %d samples\n", n)
	want := make([]int, len(s.games))
	for k := 0; k < n; k++ {
		want[s.game(k)]++
	}

	// The daemon's handler, its queue and its workers.
	tel := obs.New()
	tel.EnableRuntimeMetrics()
	var specs []daemon.GameSpec
	for _, name := range s.games {
		specs = append(specs, daemon.GameSpec{Name: name, Genre: mmog.GenreRPG, Origin: geo.Amsterdam})
	}
	d, err := daemon.New(daemon.Config{
		Games: specs, Predictor: f, Matcher: mmogdMatcher(), Obs: tel, QueueDepth: n + 1,
	})
	if err != nil {
		return err
	}
	h := d.Handler()
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for k := range reqs {
		reqs[k] = httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(s.bodies[k]))
		recs[k] = httptest.NewRecorder()
	}
	handler := make([]float64, n)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for k := range reqs {
		t := time.Now()
		h.ServeHTTP(recs[k], reqs[k])
		handler[k] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	caughtUp := true
	for g, name := range s.games {
		deadline := time.Now().Add(120 * time.Second)
		for d.Ticks(name) < want[g] && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		caughtUp = caughtUp && d.Ticks(name) == want[g]
	}
	runtime.ReadMemStats(&m1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drainErr := d.Drain(ctx)
	ok := 0
	for _, rec := range recs {
		if rec.Code == http.StatusAccepted {
			ok++
		}
	}
	r.check("in-process daemon accepts and observes every sample", ok == n && caughtUp && drainErr == nil,
		fmt.Sprintf("%d of %d accepted, caught up %v, drain %v", ok, n, caughtUp, drainErr))
	r.set("daemon.handler_us", quantile(handler, 0.5), "us", fmt.Sprintf("ServeHTTP p50, n=%d", n))
	r.set("daemon.allocs_per_sample", float64(m1.Mallocs-m0.Mallocs)/float64(n), "allocs", "handler + worker")
	r.set("daemon.bytes_per_sample", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), "B", "handler + worker")

	// Bare operators: one plain pass, one with every predictor timed.
	values := make([][]float64, n)
	for k := range values {
		var req daemon.ObserveRequest
		if err := json.Unmarshal(s.bodies[k], &req); err != nil {
			return err
		}
		values[k] = req.Values
	}
	plain, err := replayOperators(s, values, f)
	if err != nil {
		return err
	}
	r.set("operator.inproc_us", quantile(plain.durs, 0.5), "us", fmt.Sprintf("Observe p50, n=%d", n))
	r.set("operator.allocs_per_observe", plain.mallocs/float64(n), "allocs", "")
	r.set("operator.bytes_per_observe", plain.bytes/float64(n), "B", "")
	over, events := 0.0, 0
	for _, op := range plain.ops {
		m := op.Metrics()
		over += m.AvgOverPct / float64(len(plain.ops))
		events += m.Events
	}
	r.set("paper.cpu_over_alloc_pct", over, "%", "in-process operators")
	r.set("paper.under_alloc_events", float64(events), "count", "in-process operators")

	timer := &predictTimer{}
	if _, err := replayOperators(s, values, timer.wrap(f)); err != nil {
		return err
	}
	calls, busy := timer.totals()
	r.set("predict.calls", float64(calls), "count", "in-process operators")
	r.set("predict.ns_per_call", perCall(float64(busy.Nanoseconds()), float64(calls)), "ns", "Observe+Predict per forecast")
	return nil
}

// replay is one pass of bare operators over a stream prefix.
type replay struct {
	ops            []*operator.Operator
	durs           []float64 // µs per Observe
	mallocs, bytes float64
}

// replayOperators drives one operator per game, as mmogd's workers do,
// with the daemon's default two-minute tick from its default start.
func replayOperators(s *stream, values [][]float64, f predict.Factory) (*replay, error) {
	mat := mmogdMatcher()
	rp := &replay{durs: make([]float64, len(values))}
	now := make([]time.Time, len(s.games))
	for g, name := range s.games {
		op, err := operator.New(operator.Config{
			Game: mmog.NewGame(name, mmog.GenreRPG), Origin: geo.Amsterdam,
			Predictor: f, Matcher: mat, Obs: obs.New(),
		})
		if err != nil {
			return nil, err
		}
		rp.ops = append(rp.ops, op)
		now[g] = time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for k, v := range values {
		g := s.game(k)
		t := time.Now()
		err := rp.ops[g].Observe(now[g], v)
		rp.durs[k] = float64(time.Since(t).Nanoseconds()) / 1e3
		if err != nil {
			return nil, fmt.Errorf("operator %s: %w", s.games[g], err)
		}
		now[g] = now[g].Add(2 * time.Minute)
	}
	runtime.ReadMemStats(&m1)
	rp.mallocs = float64(m1.Mallocs - m0.Mallocs)
	rp.bytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	return rp, nil
}
