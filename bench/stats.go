package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (NaN when
// empty). +Inf entries sort last, so refused requests push the upper
// percentiles to +Inf first.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread describes a median's sample: count, min and max.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("median of n=%d, min %.4g, max %.4g", len(xs), quantile(xs, 0), quantile(xs, 1))
}

// best returns the least disturbed of a run's samples of one timing:
// the largest for a rate, the smallest otherwise. Other tenants of a
// shared host only ever add time to a sample, so the best one is the
// steadiest estimate of what the code costs (Chen and Revels, "Robust
// benchmarking in noisy environments", 2016). On a shared 2-vCPU VM the
// median of a run drifted by up to a third between runs.
func best(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return quantile(xs, 1)
	}
	return quantile(xs, 0)
}

// bestNote describes a best-of sample of what ("reps", "windows"):
// count, median and range.
func bestNote(xs []float64, what string) string {
	return fmt.Sprintf("best of n=%d %s, median %.4g, range %.4g-%.4g",
		len(xs), what, median(xs), quantile(xs, 0), quantile(xs, 1))
}

// info prints a measurement that the run reports to its reader but not
// in its result: a wall-clock timing that the host's other tenants
// move by more than any bound the benchmark could hold it to.
func info(name string, value float64, unit, note string) {
	fmt.Printf("  %-28s %16.4f %-12s (wall clock, not gated) %s\n", name, value, unit, note)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns a process's CPU time: the sum over its threads of the
// first field of /proc/<pid>/task/<tid>/schedstat, in nanoseconds. The
// utime and stime of /proc/<pid>/stat count whole 10 ms clock ticks,
// too coarse for a window of half a second. A thread that has exited no
// longer counts, which is harmless for a Go program: its runtime keeps
// the threads it starts.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		blob, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after ReadDir
		}
		fields := strings.Fields(string(blob))
		if len(fields) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// memMB returns one memory field of /proc/<pid>/status in MB: "VmRSS"
// (resident now) or "VmHWM" (peak resident).
func memMB(pid int, field string) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}
