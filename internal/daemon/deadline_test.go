package daemon

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mmogdc/internal/obs"
	"mmogdc/internal/predict"
)

// slowLoad is the zone load on which slowPredictor's Observe sleeps.
const slowLoad = 999

// waitingPredictor is a last-value predictor whose Observe sleeps for
// wait on a load of exactly slowLoad: a one-zone observe pass fed that
// load outlasts any shorter observe deadline between its entry and
// pre-acquire checks.
type waitingPredictor struct {
	predict.LastValue
	wait time.Duration
}

func (p *waitingPredictor) Observe(v float64) {
	if v == slowLoad {
		time.Sleep(p.wait)
	}
	p.LastValue.Observe(v)
}

func slowPredictor(wait time.Duration) predict.Factory {
	return func() predict.Predictor { return &waitingPredictor{wait: wait} }
}

// waitPasses polls until g's worker has finished n observe passes (the
// observe-loop histogram is the last thing a pass touches).
func waitPasses(t *testing.T, g *game, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.mLoop.Count() < n {
		if time.Now().After(deadline) {
			t.Fatalf("game %q stuck at %d passes, want %d", g.spec.Name, g.mLoop.Count(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestObserveTimeoutCounted pins the observe deadline end to end: a
// predictor that waits out a 5 ms observe_timeout_ms makes every pass
// count one mmogdc_daemon_observe_timeouts_total, and the pass still
// scores its sample (ticks advance) but takes no lease. With the
// deadline off the same passes count nothing and lease.
func TestObserveTimeoutCounted(t *testing.T) {
	const passes = 3
	for _, timeoutMS := range []int{5, 0} {
		o := obs.New()
		d := newTestDaemon(t, func(c *Config) {
			c.Obs = o
			c.Predictor = slowPredictor(10 * time.Millisecond)
			c.Hot.ObserveTimeoutMS = timeoutMS
		})
		srv := httptest.NewServer(d.Handler())
		for i := 0; i < passes; i++ {
			resp := postObserve(t, srv.URL, "g1", []float64{slowLoad})
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("timeout %d ms: observe %d -> %d", timeoutMS, i, resp.StatusCode)
			}
			waitPasses(t, d.games["g1"], int64(i+1))
		}
		timeouts := o.Registry.Counter("mmogdc_daemon_observe_timeouts_total", "", obs.L("game", "g1")).Value()
		ticks, leases := d.Ticks("g1"), leaseCount(t, srv.URL)
		srv.Close()
		drain(t, d)
		if ticks != passes {
			t.Errorf("timeout %d ms: ticks = %d, want %d (a pass past its deadline still scores)", timeoutMS, ticks, passes)
		}
		switch {
		case timeoutMS > 0 && (timeouts != passes || leases != 0):
			t.Errorf("timeout %d ms: %d timeouts and %d leases, want %d and 0", timeoutMS, timeouts, leases, passes)
		case timeoutMS == 0 && (timeouts != 0 || leases == 0):
			t.Errorf("no deadline: %d timeouts and %d leases, want 0 and some", timeouts, leases)
		}
	}
}
