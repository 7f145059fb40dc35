package operator

import (
	"context"
	"errors"
	"testing"
	"time"
)

// staleAfter is a context whose Err starts returning
// context.DeadlineExceeded after the first n Err calls — it pins the
// deadline to a specific ObserveCtx stage boundary deterministically.
type staleAfter struct {
	context.Context
	calls, n int
}

func (c *staleAfter) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.DeadlineExceeded
	}
	return nil
}

func TestObserveCtxAbortBeforeIngestion(t *testing.T) {
	op := testOperator(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := op.ObserveCtx(ctx, t0, t0.Add(2*time.Minute), []float64{100, 50})
	if !errors.Is(err, ErrObserveAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrObserveAborted wrapping context.Canceled", err)
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

func TestObserveCtxAbortBeforeAcquire(t *testing.T) {
	op := testOperator(t, 50)
	// Err passes once (the entry check) and expires at the pre-acquire
	// check: the snapshot is ingested but no lease is taken.
	ctx := &staleAfter{Context: context.Background(), n: 1}
	err := op.ObserveCtx(ctx, t0, t0.Add(2*time.Minute), []float64{100, 50})
	if !errors.Is(err, ErrAcquireAborted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrAcquireAborted wrapping DeadlineExceeded", err)
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

func TestObserveMatchesObserveCtxBackground(t *testing.T) {
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
		if err := b.ObserveCtx(context.Background(), now, next, lb); err != nil {
			t.Fatal(err)
		}
		now = next
	}
	ma, mb := a.Metrics(), b.Metrics()
	if ma != mb {
		t.Fatalf("Observe and ObserveCtx diverged: %+v vs %+v", ma, mb)
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
