package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// liveHeapMB forces a collection and returns the live heap in MB. A
// forced GC makes the figure depend on what the program retains, not on
// where the collector's pacing happened to be.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeSnap holds the process-wide counters per-layer metrics diff.
type runtimeSnap struct {
	allocs  uint64  // heap objects allocated
	gcCPUms float64 // CPU spent in the garbage collector
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPUms = s[1].Value.Float64() * 1e3
	}
	return r
}
