package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"mmogdc/internal/datacenter"
	"mmogdc/internal/ecosystem"
	"mmogdc/internal/emulator"
	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
)

// FuzzObserveBody holds admission's body reader to the streaming
// decode it replaced: for any bytes, under a 512-byte limit, readObserve
// and json.Decoder over http.MaxBytesReader (unknown fields refused)
// give the same error text, or the same game and bit-equal values. The
// new path reads through iotest.HalfReader, so its answer cannot
// depend on how the body is split into reads.
func FuzzObserveBody(f *testing.F) {
	const limit = 512
	canonical := `{"game":"g1","values":[1,2.5,0,1e3,7E-2]}`
	if _, _, ok := scanObserve([]byte(canonical), nil); !ok {
		f.Fatalf("%s misses the fast path", canonical)
	}
	// `{"game":"g1","values":[` is 23 bytes; each ",1" adds 2.
	atLimit := `{"game":"g1","values":[1` + strings.Repeat(",1", 243) + `]}`
	pastLimit := `{"game":"g1","values":[10` + strings.Repeat(",1", 243) + `]}`
	if len(atLimit) != limit || len(pastLimit) != limit+1 {
		f.Fatalf("limit seeds are %d and %d bytes", len(atLimit), len(pastLimit))
	}
	seeds := []string{
		canonical,
		`{"Game":"g1","values":[1]}`,
		`{"game":"g1","game":"g2","values":[1]}`,
		`{"game":"g1","values":null}`,
		canonical + `{}`,
		canonical + " \t\r\n",
		atLimit,
		pastLimit,
		`{"game":"g\u0030","values":[1]}`,
		"{\"game\":\"g\xff\",\"values\":[1]}",
		` { "game" : "g1" , "values" : [ 1 , 2 ] } `,
	}
	for _, num := range []string{"1e400", "-0", "01", "1.", ".5", "+1", "0x10", "Infinity"} {
		seeds = append(seeds, `{"game":"g1","values":[`+num+`]}`)
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		limited := func(r io.Reader) io.Reader {
			return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(r), limit)
		}
		dec := json.NewDecoder(limited(bytes.NewReader(body)))
		dec.DisallowUnknownFields()
		var want ObserveRequest
		wantErr := dec.Decode(&want)

		buf := bodyPool.Get().(*[]byte)
		defer bodyPool.Put(buf)
		vals := valuesPool.Get().(*[]float64)
		defer valuesPool.Put(vals)
		name, err := readObserve(limited(iotest.HalfReader(bytes.NewReader(body))), buf, vals)

		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: error %v, decoder %v", body, err, wantErr)
		}
		if err != nil {
			var mbe, wantMBE *http.MaxBytesError
			if err.Error() != wantErr.Error() || errors.As(err, &mbe) != errors.As(wantErr, &wantMBE) {
				t.Fatalf("%q: error %v, decoder %v", body, err, wantErr)
			}
			return
		}
		if string(name) != want.Game || len(*vals) != len(want.Values) {
			t.Fatalf("%q: game %q values %v, decoder %q %v", body, name, *vals, want.Game, want.Values)
		}
		for i, v := range *vals {
			if math.Float64bits(v) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%q: values[%d] = %v, decoder %v", body, i, v, want.Values[i])
			}
		}
	})
}

// TestAcceptedBodyMatchesEncoder pins the written 202 to the bytes
// json.Encoder gives for the same document, for game names the encoder
// escapes: HTML characters, a quote, U+2028 and non-ASCII text. The
// plain name takes the fast path; the others arrive escaped, as
// mmogload encodes them.
func TestAcceptedBodyMatchesEncoder(t *testing.T) {
	names := []string{"g1", "a<b>&c", `say "hi"`, "line\u2028sep", "café"}
	d := newTestDaemon(t, func(c *Config) {
		c.Games = nil
		for _, name := range names {
			c.Games = append(c.Games, GameSpec{Name: name, Genre: mmog.GenreMMORPG, Origin: geo.London})
		}
	})
	defer drain(t, d)
	h := d.Handler()
	for _, name := range names {
		body, _ := json.Marshal(ObserveRequest{Game: name, Values: []float64{10, 20}})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%q -> %d %s", name, rec.Code, rec.Body)
		}
		var ack struct{ Queued, Tick int64 }
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]any{"game": name, "queued": ack.Queued, "tick": ack.Tick})
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("%q: 202 body\n%q\nencoder\n%q", name, got, want.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("%q: Content-Type %q", name, ct)
		}
	}
}

// TestRejectionDoesNotWaitForObservePass: typed rejections count
// themselves under their own lock, so a malformed body gets its 400
// while an observe pass holds the ecosystem lock.
func TestRejectionDoesNotWaitForObservePass(t *testing.T) {
	d := newTestDaemon(t, nil)
	defer drain(t, d)
	h := d.Handler()
	code := make(chan int, 1)
	d.ecoMu.Lock()
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe", strings.NewReader(`{"game":`)))
		code <- rec.Code
	}()
	select {
	case c := <-code:
		d.ecoMu.Unlock()
		if c != http.StatusBadRequest {
			t.Fatalf("malformed body -> %d, want 400", c)
		}
	case <-time.After(2 * time.Second):
		d.ecoMu.Unlock()
		<-code
		t.Fatal("the 400 waited for the ecosystem lock")
	}
}

// BenchmarkDaemonObserve is one sample through mmogd in process:
// POST /v1/observe through the handler, then the worker's observe pass,
// over 144-zone canonical bodies, with cmd/mmogd's last-value predictor
// and two-center matcher. Each iteration waits for its pass, so the
// queue holds one sample at a time.
func BenchmarkDaemonObserve(b *testing.B) {
	world := emulator.NewWorld(emulator.Config{
		Name: "g0", Seed: 1, GridW: 12, GridH: 12, Entities: 1800, Steps: 257,
	})
	bodies := make([]bytes.Reader, 256)
	for k := range bodies {
		world.Step()
		req := ObserveRequest{Game: "g0"}
		for _, c := range world.ZoneCounts() {
			req.Values = append(req.Values, float64(c))
		}
		body, _ := json.Marshal(req)
		bodies[k].Reset(body)
	}
	d, err := New(Config{
		Games:     []GameSpec{{Name: "g0", Genre: mmog.GenreRPG, Origin: geo.Amsterdam}},
		Predictor: predict.NewLastValue(),
		Matcher: ecosystem.NewMatcher([]*datacenter.Center{
			datacenter.NewCenter("local", geo.Amsterdam, 4, datacenter.OptimalPolicy()),
			datacenter.NewCenter("nearby", geo.London, 4, datacenter.OptimalPolicy()),
		}),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer drain(b, d)
	h := d.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/observe", nil)
	body := &benchBody{}
	w := &benchWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reader = &bodies[i%len(bodies)]
		body.Seek(0, io.SeekStart)
		req.Body = body
		h.ServeHTTP(w, req)
		if w.code != http.StatusAccepted {
			b.Fatalf("sample %d -> %d", i, w.code)
		}
		for d.Ticks("g0") <= i {
			runtime.Gosched()
		}
	}
}

// benchBody is a request body the benchmark rewinds instead of
// allocating.
type benchBody struct{ *bytes.Reader }

func (benchBody) Close() error { return nil }

// benchWriter is a ResponseWriter that keeps the status and drops the
// body.
type benchWriter struct {
	h    http.Header
	code int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }
