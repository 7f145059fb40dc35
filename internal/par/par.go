// Package par provides a small reusable worker pool for data-parallel
// loops over index ranges. The provisioning simulation fans its
// per-zone tick work out over one pool per run, and the experiment
// sweeps use the package-level Map to run independent simulations
// concurrently.
//
// The pool is deliberately minimal: a fixed set of resident workers, a
// ForRanges primitive that splits [0, n) into contiguous chunks claimed
// from an atomic cursor (work stealing at chunk granularity, so uneven
// per-index cost still balances while tiny per-item bodies are not
// dispatched one at a time), the per-index For/ForWorker built on top,
// and a generic Map. The caller always executes one share of the loop
// itself, which makes nested or concurrent For calls deadlock-free even
// when every resident worker is busy: forward progress never depends on
// a worker becoming available.
//
// Chunked distribution matters twice for the simulation's tick loop:
// it divides the cursor contention by the chunk size (one atomic
// fetch-add per chunk instead of per index), and it hands each worker
// contiguous index ranges, so workers writing to adjacent slots of a
// shared output slice (e.g. core's per-zone partials) touch disjoint
// cache-line runs instead of interleaving write-hot lines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs index-parallel loops on a fixed set of reusable workers.
// A Pool with one worker executes everything inline on the caller's
// goroutine — byte-for-byte the sequential behavior, with no
// goroutines spawned. Pools are safe for concurrent use.
type Pool struct {
	workers int
	tasks   chan func()
	close   sync.Once

	// Utilization counters (see Stats). They observe the pool, never
	// steer it, so reading them has no effect on scheduling.
	forCalls      atomic.Int64
	callerIndices atomic.Int64
	helperIndices atomic.Int64
	helperSkips   atomic.Int64
}

// Stats is a snapshot of a pool's cumulative utilization counters:
// how many For loops ran, how the loop indices split between the
// caller's share and the resident helpers (the work-stealing balance),
// and how often a helper dispatch was skipped because every resident
// worker was busy. Counters only grow; rates come from deltas.
type Stats struct {
	ForCalls      int64
	CallerIndices int64
	HelperIndices int64
	HelperSkips   int64
}

// Stats returns the pool's cumulative utilization counters. Safe for
// concurrent use; the fields are read individually, so a snapshot taken
// while a For is in flight may tear across fields (each field is still
// exact).
func (p *Pool) Stats() Stats {
	return Stats{
		ForCalls:      p.forCalls.Load(),
		CallerIndices: p.callerIndices.Load(),
		HelperIndices: p.helperIndices.Load(),
		HelperSkips:   p.helperSkips.Load(),
	}
}

// New builds a pool. workers <= 0 sizes it by GOMAXPROCS. A pool with
// more than one worker owns workers-1 resident goroutines (the caller
// of For contributes the remaining share) and must be released with
// Close when no longer needed.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan func(), workers-1)
		for i := 0; i < workers-1; i++ {
			go func() {
				for f := range p.tasks {
					f()
				}
			}()
		}
	}
	return p
}

// Close releases the resident workers. For must not be called after
// Close. Closing a sequential (one-worker) pool is a no-op; Close is
// idempotent.
func (p *Pool) Close() {
	if p.tasks != nil {
		p.close.Do(func() { close(p.tasks) })
	}
}

// For runs fn(i) for every i in [0, n), distributing the indices over
// the pool, and returns when all calls have finished. Distinct indices
// may run concurrently; fn must not assume any ordering. A panic in fn
// is re-raised on the caller's goroutine after the loop drains.
func (p *Pool) For(n int, fn func(i int)) {
	p.ForWorker(n, func(i, _ int) { fn(i) })
}

// ForWorker is For with the executing worker's index passed alongside
// each loop index: 0 is the caller's goroutine, 1..Workers()-1 the
// resident helpers. Telemetry uses it to annotate per-index spans with
// the worker that ran them; the index identifies an executor, it
// promises nothing about scheduling. Indices are claimed one at a
// time (chunk = 1), which balances wildly uneven per-index costs; for
// many small uniform bodies prefer ForRanges, which amortizes the
// claim over a whole chunk.
func (p *Pool) ForWorker(n int, fn func(i, worker int)) {
	p.ForRanges(n, 1, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			fn(i, worker)
		}
	})
}

// ForRanges runs fn over contiguous sub-ranges [lo, hi) that exactly
// cover [0, n), distributing the ranges over the pool, and returns
// when all calls have finished. Workers claim one chunk-sized range at
// a time from a shared cursor, so the cost of claiming work is paid
// once per chunk rather than once per index, and each worker owns a
// contiguous run of indices — callers that write fn's results into a
// shared slice get cache-line-disjoint write regions for free.
//
// chunk <= 0 selects an automatic granularity of roughly
// n/(4*Workers()), clamped to at least 1: four claim rounds per worker
// keeps stealing effective when per-range costs are uneven without
// paying per-index dispatch. Distinct ranges may run concurrently and
// in any order; worker 0 is the caller's goroutine. A panic in fn is
// re-raised on the caller's goroutine after the loop drains.
func (p *Pool) ForRanges(n, chunk int, fn func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = n / (4 * p.workers)
		if chunk < 1 {
			chunk = 1
		}
	}
	p.forCalls.Add(1)
	if p.workers == 1 || n <= chunk {
		fn(0, n, 0)
		p.callerIndices.Add(int64(n))
		return
	}
	var (
		cursor   atomic.Int64
		panicMu  sync.Mutex
		panicVal any
		panicked bool
	)
	share := func(counter *atomic.Int64, worker int) {
		var done int64
		defer func() {
			counter.Add(done)
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked {
					panicked, panicVal = true, r
				}
				panicMu.Unlock()
				// Stop handing out further ranges; the loop still
				// drains so no goroutine is left behind.
				cursor.Store(int64(n))
			}
		}()
		for {
			lo := cursor.Add(int64(chunk)) - int64(chunk)
			if lo >= int64(n) {
				return
			}
			hi := lo + int64(chunk)
			if hi > int64(n) {
				hi = int64(n)
			}
			fn(int(lo), int(hi), worker)
			done += hi - lo
		}
	}
	chunks := (n + chunk - 1) / chunk
	helpers := p.workers - 1
	if chunks-1 < helpers {
		helpers = chunks - 1
	}
	var wg sync.WaitGroup
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		worker := i + 1
		task := func() {
			defer wg.Done()
			share(&p.helperIndices, worker)
		}
		select {
		case p.tasks <- task:
		default:
			// Every resident worker is busy (nested or concurrent For):
			// skip the helper, the caller's share covers its ranges.
			p.helperSkips.Add(1)
			wg.Done()
		}
	}
	share(&p.callerIndices, 0)
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}

// Map runs fn(0..n-1) on the pool and returns the collected results in
// index order, or the first (lowest-index) error encountered. All n
// calls run even when an early index fails.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	p.For(n, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
