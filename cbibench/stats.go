package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). It is 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveHeapMB forces full collections and returns the live heap. Two
// cycles also empty sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuClock reads cumulative GC and total CPU seconds, for the share of
// CPU the collector took over an interval.
type cpuClock struct{ gc, total float64 }

func readCPU() cpuClock {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClock{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcFrac is the GC share of CPU between two readings.
func gcFrac(a, b cpuClock) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}
