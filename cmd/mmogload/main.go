// Command mmogload replays emulator traffic against a running mmogd
// and reports how the daemon's observe loop held up — a
// Meterstick-style performance-variability view: tail latency of the
// ingestion round trip (p50/p95/p99/max), the shed rate under
// backpressure, and the admission accounting.
//
//	mmogd -addr 127.0.0.1:8080 &
//	mmogload -addr 127.0.0.1:8080 -n 720 -interval 10ms -rate 10 -o load.json
//	mmogaudit -events events.jsonl -load load.json
//
// The generator steps an emulated game world (the paper's Section
// IV-D1 emulator) and POSTs each two-minute snapshot to /v1/observe at
// interval/rate pacing: -rate 1 is the base cadence, -rate 10 the
// 10x overload run that must shed with 429s instead of queueing
// without bound. The -o report is consumable by cmd/mmogaudit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"mmogdc/internal/audit"
	"mmogdc/internal/daemon"
	"mmogdc/internal/emulator"
	"mmogdc/internal/obs"
	"mmogdc/internal/stats"
)

func main() {
	var (
		addr     = flag.String("addr", "", "mmogd address (host:port); required")
		game     = flag.String("game", "live", "game name to observe for")
		n        = flag.Int("n", 720, "number of samples to send (720 = one emulated day)")
		interval = flag.Duration("interval", 10*time.Millisecond, "base pacing between samples")
		rate     = flag.Float64("rate", 1, "rate multiplier: effective pacing is interval/rate")
		grid     = flag.Int("grid", 12, "emulator sub-zone grid side (grid*grid zones)")
		entities = flag.Int("entities", 1800, "peak emulated entity population")
		seed     = flag.Uint64("seed", 1, "emulator seed")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		retries  = flag.Int("retries", 3, "max re-sends per sample after a transport error or 503 (0 disables)")
		outPath  = flag.String("o", "", "write the JSON load report here (for mmogaudit -load)")
		traceOut = flag.String("trace-out", "", "write a Chrome trace of client request spans here (enables W3C traceparent propagation)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "mmogload: -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	if *rate <= 0 || *n <= 0 {
		fmt.Fprintln(os.Stderr, "mmogload: -rate and -n must be > 0")
		os.Exit(2)
	}

	cfg := emulator.Config{
		Name:     "load",
		Seed:     *seed,
		GridW:    *grid,
		GridH:    *grid,
		Entities: *entities,
		Steps:    *n,
	}
	world := emulator.NewWorld(cfg)

	client := &http.Client{Timeout: *timeout}
	url := "http://" + *addr + "/v1/observe"
	pace := time.Duration(float64(*interval) / *rate)

	// With -trace-out every request carries a W3C traceparent whose
	// parent-id is this request's client span, so the daemon's
	// per-request span chains under it and mmogaudit can merge the two
	// trace files into one cross-process timeline. The trace-id is
	// derived from the seed: two runs with the same seed share one
	// trace.
	var tracer *obs.Tracer
	traceID := *seed
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
		tracer.SetIDBase(obs.PIDSpanBase())
	}

	var accepted, shed, rejected, retried int
	rtts := make([]float64, 0, *n)
	byStatus := map[string][]float64{}
	values := make([]float64, *grid**grid)
	body := &bytes.Buffer{}
	start := time.Now()
	next := start
	for i := 0; i < *n; i++ {
		world.Step()
		counts := world.ZoneCounts()
		for j, c := range counts {
			values[j] = float64(c)
		}
		body.Reset()
		if err := json.NewEncoder(body).Encode(daemon.ObserveRequest{Game: *game, Values: values}); err != nil {
			fmt.Fprintln(os.Stderr, "mmogload:", err)
			os.Exit(1)
		}
		// One attempt returns the status code, or 0 on a transport
		// error. Transient failures — no response at all, or a 503
		// (daemon draining, region circuit open) — are retried with a
		// capped jittered backoff; a 429 is the backpressure signal the
		// overload run exists to measure and is never retried. The RTT
		// sample covers the whole resolution including retries: that is
		// the observe-loop latency a client actually experiences.
		var span *obs.Span
		var traceparent string
		if tracer != nil {
			span = tracer.Begin("client.request", "client", 0)
			span.SetSubject(*game)
			span.SetTick(i)
			traceparent = obs.Traceparent(traceID, span.ID())
		}
		post := func() int {
			req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body.Bytes()))
			if err != nil {
				return 0
			}
			req.Header.Set("Content-Type", "application/json")
			if traceparent != "" {
				req.Header.Set("traceparent", traceparent)
			}
			resp, err := client.Do(req)
			if err != nil {
				return 0
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode
		}
		t0 := time.Now()
		status := post()
		for r := 0; r < *retries && (status == 0 || status == http.StatusServiceUnavailable); r++ {
			time.Sleep(backoff(r, i))
			retried++
			status = post()
		}
		rtt := float64(time.Since(t0)) / float64(time.Millisecond)
		rtts = append(rtts, rtt)
		// The client span covers the whole resolution, retries
		// included, and records the final status — the same window the
		// RTT sample measures.
		if span != nil {
			span.SetValue(float64(status))
			span.End()
		}
		var bucket string
		switch status {
		case http.StatusAccepted:
			accepted++
			bucket = "accepted"
		case http.StatusTooManyRequests:
			shed++
			bucket = "shed"
		default:
			rejected++
			bucket = "rejected"
		}
		byStatus[bucket] = append(byStatus[bucket], rtt)
		// Fixed-schedule pacing (not sleep-after-response): a slow
		// daemon does not slow the generator down, which is what makes
		// the overload run an overload.
		next = next.Add(pace)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	elapsed := time.Since(start)

	report := &audit.LoadReport{
		Game:            *game,
		Samples:         *n,
		Accepted:        accepted,
		Shed:            shed,
		Rejected:        rejected,
		DurationSeconds: elapsed.Seconds(),
		AttemptedHz:     float64(*n) / elapsed.Seconds(),
		Retries:         retried,
		RTT: audit.LoadQuantiles{
			P50MS: stats.Quantile(rtts, 0.50),
			P95MS: stats.Quantile(rtts, 0.95),
			P99MS: stats.Quantile(rtts, 0.99),
			MaxMS: stats.Max(rtts),
		},
	}
	report.RTTByStatus = map[string]audit.StatusQuantiles{}
	for bucket, samples := range byStatus {
		report.RTTByStatus[bucket] = audit.StatusQuantiles{
			Count: len(samples),
			LoadQuantiles: audit.LoadQuantiles{
				P50MS: stats.Quantile(samples, 0.50),
				P95MS: stats.Quantile(samples, 0.95),
				P99MS: stats.Quantile(samples, 0.99),
				MaxMS: stats.Max(samples),
			},
		}
	}

	fmt.Printf("mmogload: %d samples in %.2fs (%.1f/s attempted, pace %s)\n",
		report.Samples, report.DurationSeconds, report.AttemptedHz, pace)
	fmt.Printf("mmogload: sent=%d accepted=%d shed=%d rejected=%d retries=%d\n",
		report.Samples, report.Accepted, report.Shed, report.Rejected, report.Retries)
	fmt.Printf("mmogload: rtt_ms p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
		report.RTT.P50MS, report.RTT.P95MS, report.RTT.P99MS, report.RTT.MaxMS)
	for _, bucket := range []string{"accepted", "shed", "rejected"} {
		if q, ok := report.RTTByStatus[bucket]; ok {
			fmt.Printf("mmogload: rtt_ms[%s] n=%d p50=%.3f p99=%.3f max=%.3f\n",
				bucket, q.Count, q.P50MS, q.P99MS, q.MaxMS)
		}
	}

	if tracer != nil {
		if err := tracer.WriteTraceFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "mmogload: trace-out:", err)
			os.Exit(1)
		}
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmogload:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "mmogload:", err)
			os.Exit(1)
		}
		f.Close()
	}
}

// backoff returns the delay before retry r of sample i: exponential
// from 5ms, capped at 80ms, with deterministic +/-25% jitter drawn
// from the sample/attempt pair so concurrent generators do not hammer
// a recovering daemon in lockstep.
func backoff(r, i int) time.Duration {
	d := 5 * time.Millisecond << uint(r)
	if d > 80*time.Millisecond {
		d = 80 * time.Millisecond
	}
	h := uint64(i)*0x9E3779B97F4A7C15 + uint64(r+1)*0xBF58476D1CE4E5B9
	jitter := time.Duration(h%uint64(d/2)) - d/4
	return d + jitter
}
