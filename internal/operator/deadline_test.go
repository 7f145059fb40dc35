package operator

import (
	"errors"
	"testing"
	"time"

	"mmogdc/internal/geo"
	"mmogdc/internal/mmog"
	"mmogdc/internal/predict"
)

func TestObserveUntilAbortBeforeIngestion(t *testing.T) {
	op := testOperator(t, 50)
	passed := time.Now().Add(-time.Millisecond)
	err := op.ObserveUntil(t0, t0.Add(2*time.Minute), passed, 0, []float64{100, 50})
	if !errors.Is(err, ErrObserveAborted) {
		t.Fatalf("err = %v, want ErrObserveAborted", err)
	}
	if m := op.Metrics(); m.Ticks != 0 {
		t.Fatalf("aborted observe advanced ticks to %d", m.Ticks)
	}
	if op.ZoneCount() != 0 {
		t.Fatalf("aborted observe fixed the zone count at %d", op.ZoneCount())
	}
	// The same snapshot re-submits cleanly.
	if err := op.Observe(t0, []float64{100, 50}); err != nil {
		t.Fatal(err)
	}
	if m := op.Metrics(); m.Ticks != 1 {
		t.Fatalf("ticks = %d after clean re-submit, want 1", m.Ticks)
	}
}

// waitingPredictor is a last-value predictor whose Observe sleeps until
// a wall-clock instant: it holds the observe pass between the entry
// check and the pre-acquire check until a deadline there has passed.
type waitingPredictor struct {
	predict.LastValue
	until time.Time
}

func (p *waitingPredictor) Observe(v float64) {
	time.Sleep(time.Until(p.until))
	p.LastValue.Observe(v)
}

func TestObserveUntilAbortBeforeAcquire(t *testing.T) {
	deadline := time.Now().Add(250 * time.Millisecond)
	op, err := New(Config{
		Game:      mmog.NewGame("op", mmog.GenreMMORPG),
		Origin:    geo.London,
		Predictor: func() predict.Predictor { return &waitingPredictor{until: deadline} },
		Matcher:   testMatcher(50),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The entry check passes; the predictors wait out the deadline, so
	// the pre-acquire check expires: the snapshot is ingested but no
	// lease is taken.
	err = op.ObserveUntil(t0, t0.Add(2*time.Minute), deadline, 0, []float64{100, 50})
	if !errors.Is(err, ErrAcquireAborted) {
		t.Fatalf("err = %v, want ErrAcquireAborted", err)
	}
	m := op.Metrics()
	if m.Ticks != 1 {
		t.Fatalf("ticks = %d, want 1 (snapshot was ingested)", m.Ticks)
	}
	if views := op.LeaseViews(t0); len(views) != 0 {
		t.Fatalf("aborted acquisition still took %d leases", len(views))
	}
	// The next full tick picks the shortfall back up.
	if err := op.Observe(t0.Add(2*time.Minute), []float64{100, 50}); err != nil {
		t.Fatal(err)
	}
	if views := op.LeaseViews(t0.Add(2 * time.Minute)); len(views) == 0 {
		t.Fatal("follow-up observe acquired nothing")
	}
}

// A deadline ahead of the whole pass, or none, changes nothing.
func TestObserveMatchesObserveUntil(t *testing.T) {
	a := testOperator(t, 50)
	b := testOperator(t, 50)
	loads := [][]float64{{100, 50}, {120, 40}, {90, 60}, {150, 30}}
	now := t0
	for _, l := range loads {
		la := append([]float64(nil), l...)
		lb := append([]float64(nil), l...)
		if err := a.Observe(now, la); err != nil {
			t.Fatal(err)
		}
		next := now.Add(2 * time.Minute)
		if err := b.ObserveUntil(now, next, time.Now().Add(time.Hour), 0, lb); err != nil {
			t.Fatal(err)
		}
		now = next
	}
	ma, mb := a.Metrics(), b.Metrics()
	if ma != mb {
		t.Fatalf("Observe and ObserveUntil diverged: %+v vs %+v", ma, mb)
	}
}

func TestLeaseViews(t *testing.T) {
	op := testOperator(t, 50)
	if err := op.Observe(t0, []float64{200, 100}); err != nil {
		t.Fatal(err)
	}
	views := op.LeaseViews(t0.Add(time.Minute))
	if len(views) == 0 {
		t.Fatal("no lease views after an acquiring observe")
	}
	for _, v := range views {
		if v.Center == "" || v.CPU <= 0 || !v.Expires.After(v.Start) {
			t.Fatalf("malformed lease view %+v", v)
		}
	}
	if op.ZoneCount() != 2 {
		t.Fatalf("ZoneCount = %d, want 2", op.ZoneCount())
	}
}
