package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	c.Add(0)  // ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("same name+labels must return the same counter instance")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	l1 := r.Counter("lbl_total", "labeled", L("a", "1"), L("b", "2"))
	l2 := r.Counter("lbl_total", "labeled", L("b", "2"), L("a", "1"))
	if l1 != l2 {
		t.Fatal("label order must not distinguish series")
	}
	l3 := r.Counter("lbl_total", "labeled", L("a", "1"), L("b", "3"))
	if l3 == l1 {
		t.Fatal("different label values must be distinct series")
	}
	if n := r.SeriesCount(); n != 4 {
		t.Fatalf("SeriesCount = %d, want 4", n)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "first registration wins")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x", "wrong kind")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 1, 5, 100, math.Inf(1), math.NaN()} {
		h.Observe(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("count = %d, want 8", got)
	}
	// Per-bucket: le=0.1 gets 0.05 and 0.1 (inclusive), le=1 gets 0.5
	// and 1, le=10 gets 5, +Inf gets 100, Inf, NaN.
	want := []int64{2, 2, 1, 3}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if !math.IsNaN(h.Sum()) {
		t.Fatalf("sum with a NaN observation should be NaN, got %v", h.Sum())
	}
}

func TestBucketValidation(t *testing.T) {
	r := NewRegistry()
	// A trailing +Inf is dropped, not rejected.
	h := r.Histogram("inf_ok", "x", []float64{1, 2, math.Inf(1)})
	if len(h.bounds) != 2 {
		t.Fatalf("trailing +Inf should be stripped, bounds = %v", h.bounds)
	}
	for _, bad := range [][]float64{{2, 1}, {1, 1}, {math.NaN()}, {math.Inf(-1), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("buckets %v must panic", bad)
				}
			}()
			r.Histogram("bad", "x", bad)
		}()
	}
}

// TestNilInstrumentsAreFreeNoOps is the disabled-path contract: every
// operation on nil instruments (what a nil Registry hands out) must do
// nothing and allocate nothing.
func TestNilInstrumentsAreFreeNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "nil registry returns nil")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", TimeBuckets)
	var rec *Recorder
	var o *Obs
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(7)
		g.Set(1)
		h.Observe(0.5)
		rec.Record(Event{Kind: "x"})
		_ = o.Now()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %.1f per run, want 0", allocs)
	}
	if r.SeriesCount() != 0 || rec.Len() != 0 || rec.Total() != 0 {
		t.Fatal("nil accessors must report empty")
	}
	if r.PrometheusText() != "" {
		t.Fatal("nil registry must expose nothing")
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestConcurrentIncObserve hammers one counter, gauge, and histogram
// from many goroutines; run under -race this proves the atomics, and
// the totals prove no update is lost.
func TestConcurrentIncObserve(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			// Mix registration and updates: series lookup must be
			// concurrency-safe too.
			c := r.Counter("cc_total", "contended")
			g := r.Gauge("cg", "contended")
			h := r.Histogram("ch_seconds", "contended", []float64{0.5})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(seed))
				h.Observe(float64(i%2) * 0.75)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("cc_total", "contended").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("cg", "contended").Value(); got != math.Trunc(got) || got < 0 || got >= workers {
		t.Fatalf("gauge = %v, want one worker's value in [0, %d)", got, workers)
	}
	h := r.Histogram("ch_seconds", "contended", []float64{0.5})
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	wantSum := float64(workers) * perWorker / 2 * 0.75
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestManualClock(t *testing.T) {
	start := time.Date(2008, 3, 1, 0, 0, 0, 0, time.UTC)
	c := NewManualClock(start, 5*time.Microsecond)
	t0 := c.Now()
	t1 := c.Now()
	if !t0.Equal(start) || t1.Sub(t0) != 5*time.Microsecond {
		t.Fatalf("manual clock readings %v, %v", t0, t1)
	}
}
