package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// This file is the opt-in HTTP surface of the observability layer:
//
//	/metrics                 Prometheus text exposition of the registry
//	/events                  flight-recorder contents as a JSON document
//	/debug/pprof/...         the standard runtime profiles
//
// Everything hangs off a private mux — importing net/http/pprof also
// registers on http.DefaultServeMux, but we never serve that mux, so
// an embedding application's routes are not polluted. Nothing is
// process-global: two bundles in one process serve their own data.

// Handler returns the observability mux described above. A nil *Obs
// still returns a working handler over empty data.
func (o *Obs) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.SyncRecorderGauges()
		o.SampleRuntime()
		o.Reg().WritePrometheus(w)
	})
	// Encode failures (usually the scraper hanging up mid-response) are
	// counted in the registry rather than spamming a log.
	encodeErrs := o.Reg().Counter("mmogdc_obs_http_encode_errors_total",
		"HTTP responses the observability server failed to encode or write.")
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		since := 0
		if s := q.Get("since"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "since: not an integer: "+s, http.StatusBadRequest)
				return
			}
			since = n
		}
		kind := q.Get("kind")
		rec := o.Rec()
		events := rec.Events()
		if kind != "" || since > 0 {
			kept := events[:0]
			for _, e := range events {
				if (kind == "" || e.Kind == kind) && e.Tick >= since {
					kept = append(kept, e)
				}
			}
			events = kept
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		doc := map[string]any{
			"total":     rec.Total(),
			"dropped":   rec.Dropped(),
			"sink_errs": rec.SinkErrs(),
			"matched":   len(events),
			"events":    events,
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			encodeErrs.Inc()
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "mmogdc observability\n\n/metrics\n/events\n/debug/pprof/\n")
	})
	return mux
}

// Slow-client protection defaults for HardenedServer. The generous
// write/idle windows keep the long scrapes working — a 30-second
// /debug/pprof/profile finishes well inside WriteTimeout — while the
// tight header deadline evicts connections that never finish their
// request line (slowloris), so one stuck client cannot hold the ops
// surface open indefinitely.
const (
	DefaultReadHeaderTimeout = 5 * time.Second
	DefaultReadTimeout       = time.Minute
	DefaultWriteTimeout      = 2 * time.Minute
	DefaultIdleTimeout       = 2 * time.Minute
	DefaultMaxHeaderBytes    = 64 << 10
)

// HardenedServer wraps h in an http.Server carrying the slow-client
// protections above. Both the observability surface and cmd/mmogd's
// ingestion API serve through it, so neither can be wedged by a client
// that connects and stalls.
func HardenedServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: DefaultReadHeaderTimeout,
		ReadTimeout:       DefaultReadTimeout,
		WriteTimeout:      DefaultWriteTimeout,
		IdleTimeout:       DefaultIdleTimeout,
		MaxHeaderBytes:    DefaultMaxHeaderBytes,
	}
}

// Server is a running HTTP server: the observability surface or
// cmd/mmogd's API.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts serving h on addr (e.g. ":8080" or "127.0.0.1:0" for an
// ephemeral port) and returns once it is listening; requests are
// served in a background goroutine. The server carries the
// HardenedServer timeouts.
func Serve(addr string, h http.Handler) (*Server, error) {
	return serveWith(addr, HardenedServer(h))
}

// serveWith binds addr and serves srv on it in the background — the
// seam tests use to shrink the timeouts.
func serveWith(addr string, srv *http.Server) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	s := &Server{ln: ln, srv: srv}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the server's bound address (with the real port when an
// ephemeral one was requested).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
