package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quantile is the nearest-rank q-quantile of xs: the smallest sample with
// at least a q share of the samples at or below it. NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailOps is the least number of operations that leaves ten beyond the
// q-quantile.
func tailOps(q float64) int { return int(math.Ceil(10 / (1 - q))) }

// median is the middle sample, the mean of the two middle ones for an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB; pid 0 is
// this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line) // "VmHWM:", "<n>", "kB"
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in %s", path)
}

// runtimeCounters samples the GC cycle count and the cumulative heap
// allocation of this process.
type runtimeCounters struct{ gcCycles, allocBytes float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return runtimeCounters{gcCycles: float64(s[0].Value.Uint64()), allocBytes: float64(s[1].Value.Uint64())}
}

// addRuntimeSince credits the GC cycles and allocation since before to the
// window's in-process operations.
func (w *window) addRuntimeSince(before runtimeCounters, ops int) {
	now := readRuntime()
	w.gcCycles += now.gcCycles - before.gcCycles
	w.allocBytes += now.allocBytes - before.allocBytes
	w.ops += ops
}
