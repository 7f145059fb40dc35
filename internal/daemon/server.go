package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path"
	"strconv"
	"strings"
	"time"

	"mmogdc/internal/obs"
	"mmogdc/internal/operator"
)

// The daemon's HTTP surface:
//
//	POST /v1/observe    ingest one per-game tick sample (202 / 429 / 4xx)
//	GET  /v1/forecast   latest per-zone forecast for one game
//	GET  /v1/leases     the live lease book for one game
//	GET  /v1/explain    the last-N allocation decisions with verdicts
//	                    (requires Config.ExplainDepth / mmogd -explain)
//	GET  /v1/config     the active hot configuration
//	POST /v1/config     validate-and-swap a new hot configuration
//	GET  /healthz       process liveness (always 200 while serving)
//	GET  /readyz        admission readiness (503 while draining)
//	GET  /metrics …     the observability surface (internal/obs)
//
// Any other path under /v1 answers 404 unknown_endpoint, and so does
// one with an empty, "." or ".." segment. Error
// responses are typed JSON: {"error":{"code":..., "message":...}}.

// apiError is the typed error body every non-2xx response carries.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (d *Daemon) typedError(w http.ResponseWriter, status int, code, msg string) {
	d.rejected(code)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{"error": {Code: code, Message: msg}})
}

// rejected counts one refused request by reason code. The counter map
// is tiny (one entry per code) and lazily built.
func (d *Daemon) rejected(code string) {
	d.seriesMu.Lock()
	c := d.mRejected[code]
	if c == nil {
		c = d.obs.Registry.Counter("mmogdc_daemon_rejected_total",
			"Requests refused, by typed error code.", obs.L("reason", code))
		d.mRejected[code] = c
	}
	d.seriesMu.Unlock()
	c.Inc()
}

// requestSeries is one series of the request histogram.
type requestSeries struct {
	path string
	code int
}

// requestSeconds returns the request histogram's series for path and
// status code, resolving it in the registry on its first request only.
func (d *Daemon) requestSeconds(path string, code int) *obs.Histogram {
	k := requestSeries{path, code}
	d.seriesMu.Lock()
	defer d.seriesMu.Unlock()
	h, ok := d.mRequests[k]
	if !ok {
		h = d.obs.Registry.Histogram("mmogdc_daemon_http_request_seconds",
			"HTTP request latency by /v1 endpoint and status code (healthz/readyz excluded).",
			obs.TimeBuckets, obs.L("path", path), obs.L("code", strconv.Itoa(code)))
		d.mRequests[k] = h
	}
	return h
}

// statusWriter captures the response status code for the per-endpoint
// request histogram and the request span.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// endpoint is one /v1 handler. span is the request's daemon.request
// span (0 when tracing is off), under which the admission path chains
// the queue-wait and observe spans.
type endpoint func(w http.ResponseWriter, r *http.Request, span obs.SpanID)

// instrument wraps one /v1 endpoint with request-scoped telemetry:
// the mmogdc_daemon_http_request_seconds{path,code} histogram, and —
// when tracing is on — a daemon.request span parented under the
// client's W3C traceparent header (mmogload sends one per request),
// whose ID it hands to the endpoint. The health probes are
// deliberately not wrapped: a scraper hitting healthz every second
// would pollute the series for zero diagnostic value.
func (d *Daemon) instrument(path string, h endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := d.obs.Now()
		var span *obs.Span
		if trc := d.obs.Trc(); trc != nil {
			_, parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
			span = trc.BeginAt("daemon.request", "daemon", parent, start)
			span.SetSubject(path)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r, span.ID())
		end := d.obs.Now()
		d.requestSeconds(path, sw.code).Observe(end.Sub(start).Seconds())
		if span != nil {
			span.SetValue(float64(sw.code))
			span.EndAt(end)
		}
	}
}

// ObserveRequest is the POST /v1/observe body: one monitoring snapshot
// of per-zone entity counts (or any non-negative load measure).
type ObserveRequest struct {
	Game   string    `json:"game"`
	Values []float64 `json:"values"`
}

func (d *Daemon) handleObserve(w http.ResponseWriter, r *http.Request, span obs.SpanID) {
	r.Body = http.MaxBytesReader(w, r.Body, d.cfg.MaxBodyBytes)
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	// The values buffer goes to the worker with the sample; until then,
	// every refusal hands it back.
	vals := valuesPool.Get().(*[]float64)
	defer func() {
		if vals != nil {
			valuesPool.Put(vals)
		}
	}()
	name, err := readObserve(r.Body, buf, vals)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			d.typedError(w, http.StatusRequestEntityTooLarge, "oversized_body",
				fmt.Sprintf("body exceeds %d bytes", mbe.Limit))
			return
		}
		d.typedError(w, http.StatusBadRequest, "malformed_body", err.Error())
		return
	}
	g := d.games[string(name)]
	if g == nil {
		d.typedError(w, http.StatusNotFound, "unknown_game",
			fmt.Sprintf("game %q is not provisioned by this daemon", name))
		return
	}
	values := *vals
	if len(values) == 0 {
		d.typedError(w, http.StatusBadRequest, "bad_value", "values must carry at least one zone")
		return
	}
	for i, v := range values {
		if math.IsInf(v, 0) || math.IsNaN(v) || v < 0 {
			d.typedError(w, http.StatusBadRequest, "bad_value",
				fmt.Sprintf("values[%d] = %v is not a finite non-negative load", i, v))
			return
		}
	}
	// The first accepted observation fixes the game's zone count; every
	// later snapshot must match it (a malformed client must not wedge
	// the operator with shape errors).
	n := int64(len(values))
	if !g.zones.CompareAndSwap(0, n) && g.zones.Load() != n {
		d.typedError(w, http.StatusConflict, "zone_mismatch",
			fmt.Sprintf("observed %d zones, game %q has %d", n, g.spec.Name, g.zones.Load()))
		return
	}
	// The region circuit breaker gates admission: a game homed in a
	// region whose centers keep rejecting grants is refused instead of
	// queueing observations the region cannot serve.
	if !d.brk.allow(g.region) {
		// The matcher never sees a refused observation; synthesize its
		// provenance so /v1/explain can answer for the refusal too.
		d.explainCircuitOpen(g, g.region)
		w.Header().Set("Retry-After", "1")
		d.typedError(w, http.StatusServiceUnavailable, "region_unavailable",
			fmt.Sprintf("region %q circuit is open after consecutive grant failures", g.region))
		return
	}
	tick, err := d.enqueue(g, vals, span)
	switch {
	case errors.Is(err, errDraining):
		d.typedError(w, http.StatusServiceUnavailable, "draining", "daemon is draining; not admitting")
		return
	case errors.Is(err, errQueueFull):
		// Backpressure: shed with 429 and tell the client when to come
		// back — one observe deadline is the worst-case drain time of
		// one queue slot.
		retry := 1
		if t := d.hot.Load().ObserveTimeout(); t > time.Second {
			retry = int(t / time.Second)
		}
		w.Header().Set("Retry-After", fmt.Sprint(retry))
		d.typedError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("ingest queue for %q is full (%d waiting)", g.spec.Name, cap(g.queue)))
		return
	}
	vals = nil // the worker returns it
	// The body buffer is spent: it carries the 202, the bytes
	// json.Encoder writes for {"game":…,"queued":…,"tick":…}.
	ack := append((*buf)[:0], `{"game":`...)
	ack = append(ack, g.nameJSON...)
	ack = append(ack, `,"queued":`...)
	ack = strconv.AppendInt(ack, int64(len(g.queue)), 10)
	ack = append(ack, `,"tick":`...)
	ack = strconv.AppendInt(ack, tick, 10)
	ack = append(ack, "}\n"...)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusAccepted)
	w.Write(ack)
}

// gameFor resolves the ?game= query parameter, defaulting to the only
// game when exactly one is provisioned.
func (d *Daemon) gameFor(w http.ResponseWriter, r *http.Request) *game {
	name := r.URL.Query().Get("game")
	if name == "" && len(d.order) == 1 {
		name = d.order[0]
	}
	g := d.games[name]
	if g == nil {
		d.typedError(w, http.StatusNotFound, "unknown_game",
			fmt.Sprintf("game %q is not provisioned by this daemon", name))
		return nil
	}
	return g
}

func (d *Daemon) handleForecast(w http.ResponseWriter, r *http.Request, _ obs.SpanID) {
	g := d.gameFor(w, r)
	if g == nil {
		return
	}
	d.ecoMu.Lock()
	m := g.op.Metrics()
	src := g.op.Forecast()
	forecast := append([]float64(nil), src...)
	d.ecoMu.Unlock()
	total := 0.0
	for _, f := range forecast {
		total += f
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(map[string]any{
		"game": g.spec.Name, "ticks": m.Ticks, "zones": len(forecast),
		"total": total, "forecast": forecast,
	})
}

func (d *Daemon) handleLeases(w http.ResponseWriter, r *http.Request, _ obs.SpanID) {
	g := d.gameFor(w, r)
	if g == nil {
		return
	}
	d.ecoMu.Lock()
	views := g.op.LeaseViews(g.now)
	d.ecoMu.Unlock()
	if views == nil {
		views = []operator.LeaseView{}
	}
	cpu := 0.0
	for _, v := range views {
		cpu += v.CPU
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(map[string]any{
		"game": g.spec.Name, "count": len(views), "cpu_units": cpu, "leases": views,
	})
}

func (d *Daemon) handleConfigGet(w http.ResponseWriter, _ *http.Request, _ obs.SpanID) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(d.Hot())
}

func (d *Daemon) handleConfigPost(w http.ResponseWriter, r *http.Request, _ obs.SpanID) {
	r.Body = http.MaxBytesReader(w, r.Body, d.cfg.MaxBodyBytes)
	// The candidate starts from the active configuration, so a partial
	// body tweaks only the fields it names.
	h, err := DecodeHot(r.Body, d.Hot())
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			d.typedError(w, http.StatusRequestEntityTooLarge, "oversized_body",
				fmt.Sprintf("body exceeds %d bytes", mbe.Limit))
			return
		}
		d.typedError(w, http.StatusBadRequest, "malformed_body", err.Error())
		return
	}
	if err := d.Reload(h); err != nil {
		d.typedError(w, http.StatusBadRequest, "invalid_config", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(map[string]any{"applied": true, "config": d.Hot()})
}

// unknownEndpoint is the request histogram's path label for every /v1
// path that names no endpoint.
const unknownEndpoint = "unknown"

// Handler returns the daemon's full HTTP surface: the /v1 API, the
// health endpoints, and the observability mux (metrics, events,
// pprof) as the fallback.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/observe", d.instrument("/v1/observe", d.handleObserve))
	mux.HandleFunc("GET /v1/forecast", d.instrument("/v1/forecast", d.handleForecast))
	mux.HandleFunc("GET /v1/leases", d.instrument("/v1/leases", d.handleLeases))
	mux.HandleFunc("GET /v1/explain", d.instrument("/v1/explain", d.handleExplain))
	mux.HandleFunc("GET /v1/config", d.instrument("/v1/config", d.handleConfigGet))
	mux.HandleFunc("POST /v1/config", d.instrument("/v1/config", d.handleConfigPost))
	// Method-less duplicates catch method confusion with a typed 405;
	// without them the mux would fall through to the "/" pattern below
	// and report a misleading 404 from the obs surface.
	for path, allow := range map[string]string{
		"/v1/observe": "POST", "/v1/forecast": "GET", "/v1/leases": "GET",
		"/v1/explain": "GET", "/v1/config": "GET, POST",
	} {
		mux.HandleFunc(path, d.instrument(path, func(w http.ResponseWriter, r *http.Request, _ obs.SpanID) {
			w.Header().Set("Allow", allow)
			d.typedError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s does not allow %s", r.URL.Path, r.Method))
		}))
	}
	// Any other /v1 path is counted under one path label, not its own,
	// so a client probing paths cannot add series to the histogram.
	unknown := d.instrument(unknownEndpoint, func(w http.ResponseWriter, r *http.Request, _ obs.SpanID) {
		d.typedError(w, http.StatusNotFound, "unknown_endpoint", fmt.Sprintf("no endpoint %s", r.URL.Path))
	})
	mux.HandleFunc("/v1", unknown)
	mux.HandleFunc("/v1/", unknown)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if d.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.Handle("/", d.obs.Handler())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// ServeMux answers a path with an empty, "." or ".." segment with
		// a bare 301 to its cleaned form before any handler runs, which a
		// client may replay as a GET and the request histogram never
		// counts. Under /v1 such a path names no endpoint. (The cleaned
		// form keeps one trailing slash.)
		if p := r.URL.EscapedPath(); strings.HasPrefix(p, "/v1/") && path.Clean(p) != strings.TrimSuffix(p, "/") {
			unknown(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}
