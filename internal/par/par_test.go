package par

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			p := New(workers)
			defer p.Close()
			for _, n := range []int{0, 1, 2, 7, 100, 1000} {
				hits := make([]int32, n)
				p.For(n, func(i int) {
					atomic.AddInt32(&hits[i], 1)
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("n=%d: index %d executed %d times", n, i, h)
					}
				}
			}
		})
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.workers < 1 {
		t.Fatalf("workers = %d", p.workers)
	}
	if q := New(1); q.workers != 1 {
		t.Fatalf("workers = %d, want 1", q.workers)
	}
}

func TestPoolIsReusable(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		p.For(64, func(i int) { total.Add(1) })
	}
	if total.Load() != 50*64 {
		t.Fatalf("total = %d", total.Load())
	}
}

func TestConcurrentForCalls(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.For(100, func(i int) { total.Add(int64(i)) })
		}()
	}
	wg.Wait()
	if want := int64(8 * 100 * 99 / 2); total.Load() != want {
		t.Fatalf("total = %d, want %d", total.Load(), want)
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	p := New(2)
	defer p.Close()
	var total atomic.Int64
	p.For(8, func(i int) {
		p.For(8, func(j int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("total = %d", total.Load())
	}
}

func TestForPropagatesPanic(t *testing.T) {
	p := New(4)
	defer p.Close()
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	p.For(100, func(i int) {
		if i == 13 {
			panic("boom")
		}
	})
	t.Fatal("For should have panicked")
}

func TestMapOrderAndError(t *testing.T) {
	p := New(4)
	defer p.Close()
	out, err := Map(p, 10, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	boom := errors.New("boom")
	if _, err := Map(p, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestSequentialPoolRunsInline(t *testing.T) {
	p := New(1)
	defer p.Close()
	// Order must be strictly 0..n-1 on the caller's goroutine.
	var got []int
	p.For(5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want in-order indices", got)
		}
	}
}

func TestPoolStats(t *testing.T) {
	// Sequential pool: every index is the caller's.
	seq := New(1)
	defer seq.Close()
	seq.For(7, func(int) {})
	seq.For(3, func(int) {})
	seq.For(0, func(int) {}) // empty loops are not For calls
	if s := seq.Stats(); s != (Stats{ForCalls: 2, CallerIndices: 10}) {
		t.Fatalf("sequential stats = %+v", s)
	}

	// Parallel pool: caller + helpers cover every index exactly once.
	p := New(4)
	defer p.Close()
	const rounds, n = 20, 64
	for r := 0; r < rounds; r++ {
		p.For(n, func(int) {})
	}
	s := p.Stats()
	if s.ForCalls != rounds {
		t.Fatalf("ForCalls = %d, want %d", s.ForCalls, rounds)
	}
	if got := s.CallerIndices + s.HelperIndices; got != rounds*n {
		t.Fatalf("caller+helper indices = %d, want %d (stats = %+v)", got, rounds*n, s)
	}
	if s.CallerIndices == 0 {
		t.Fatalf("caller never executed an index: %+v", s)
	}

	// Nested For: inner loops run on busy workers, so helper dispatches
	// are skipped and the indices still all execute.
	p2 := New(2)
	defer p2.Close()
	var inner atomic.Int64
	p2.For(2, func(int) {
		p2.For(8, func(int) { inner.Add(1) })
	})
	if inner.Load() != 16 {
		t.Fatalf("inner iterations = %d, want 16", inner.Load())
	}
	s2 := p2.Stats()
	if got := s2.CallerIndices + s2.HelperIndices; got != 2+16 {
		t.Fatalf("nested indices = %d, want 18 (stats = %+v)", got, s2)
	}
}

// TestForWorkerCoversEveryIndexWithValidWorker checks the worker-index
// variant: every index runs exactly once, worker IDs stay inside
// [0, Workers()), and the caller's goroutine is worker 0 on the
// sequential path.
func TestForWorkerCoversEveryIndexWithValidWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		const n = 500
		var mu sync.Mutex
		count := make([]int, n)
		seen := map[int]bool{}
		p.ForWorker(n, func(i, w int) {
			if w < 0 || w >= p.workers {
				t.Errorf("workers=%d: worker index %d out of range", workers, w)
			}
			mu.Lock()
			count[i]++
			seen[w] = true
			mu.Unlock()
		})
		for i, c := range count {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		if workers == 1 && (len(seen) != 1 || !seen[0]) {
			t.Fatalf("sequential pool used workers %v, want only 0", seen)
		}
		p.Close()
	}
}
