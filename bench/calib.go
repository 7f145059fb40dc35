package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The host this benchmark runs on is shared, and its other tenants slow
// the same instructions down by up to 2.3x for minutes at a time (user
// CPU time of one deterministic single-threaded core.Run rep ranged from
// 260 to 606 ms on a 2-vCPU VM with no steal). The slowdown comes from
// shared caches and cores, not from lost CPU time, so no CPU-time
// measurement escapes it. A run therefore times a fixed reference kernel
// before and after every sample it gates (a core.Run rep, a window of
// daemon load, a set-up) and scales the sample by how fast the kernel
// ran around it. The gated value is the median of the scaled samples.
//
// The kernel lives in this package and never changes with the code under
// test. It exercises what the workloads spend their time on: the Go
// allocator, maps and sorting. Over 1,128 interleaved rounds of
// one-day core.Run reps and candidate kernels, blocks of 40 rounds had
// median ratios of rep to allocation-kernel CPU time that spread 0.04
// (interquartile range over median), against 0.44 for the reps' median
// CPU time alone; a register-only loop, pointer chases through 1 and
// 8 MiB and a float loop tracked the host's slowdown less well (0.12 to
// 0.39).

// kernelRef is the kernel's CPU time on a quiet 2-vCPU reference VM: a
// scaled sample reads what it would have measured there.
const kernelRef = 9100 * time.Microsecond

// kernelSink keeps the kernel's result live so the compiler keeps its
// work.
var kernelSink uint64

// kernel builds, sorts and probes small heap records: the allocator,
// map and sort work the engines do per tick.
func kernel() {
	type rec struct {
		key  int
		v    float64
		tail []int
	}
	x := uint64(1)
	for it := 0; it < 20; it++ {
		byKey := map[int]*rec{}
		recs := make([]*rec, 0, 2000)
		for i := 0; i < 2000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			r := &rec{key: int(x >> 40), v: float64(x>>11) / (1 << 53), tail: make([]int, 4)}
			byKey[r.key] = r
			recs = append(recs, r)
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].v < recs[b].v })
		for _, r := range recs {
			if q, ok := byKey[r.key]; ok {
				kernelSink += uint64(math.Sqrt(q.v) * 1e6)
			}
		}
	}
}

// calibration times the kernel between a run's samples.
type calibration struct {
	prev  time.Duration // the kernel's time at the last call
	times []time.Duration
}

// kernelTime runs the kernel once with the collector off, so its time
// does not depend on the heap the code under test left behind, and
// returns the CPU time it took.
func (c *calibration) kernelTime() time.Duration {
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	c0 := selfCPU()
	kernel()
	d := selfCPU() - c0
	debug.SetGCPercent(gc)
	runtime.GC()
	c.times = append(c.times, d)
	return d
}

// begin times the kernel ahead of a series of samples; the first call
// warms the kernel up with one untimed pass.
func (c *calibration) begin() {
	if c.prev == 0 {
		kernel()
	}
	c.prev = c.kernelTime()
}

// scale times the kernel after a sample that measured v, a CPU time in
// any unit, and returns v at the reference VM's speed: v times kernelRef
// over the mean of the kernel's times just before and just after the
// sample.
func (c *calibration) scale(v float64) float64 {
	if c.prev == 0 {
		c.begin()
	}
	now := c.kernelTime()
	around := (c.prev + now) / 2
	c.prev = now
	return v * float64(kernelRef) / float64(max(around, time.Microsecond))
}

// String reports how fast the kernel ran over the run.
func (c *calibration) String() string {
	xs := make([]float64, len(c.times))
	for i, d := range c.times {
		xs[i] = ms(d)
	}
	return fmt.Sprintf("reference kernel %.3f ms median over n=%d, range %.3f-%.3f (%.2f ms on the reference VM)",
		median(xs), len(xs), quantile(xs, 0), quantile(xs, 1), ms(kernelRef))
}
