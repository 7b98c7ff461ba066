package main

import (
	"runtime"
	"runtime/metrics"
)

// memCounters are the process's cumulative allocation and CPU-class
// counters at one instant, or the difference of two such readings.
type memCounters struct {
	mallocs, bytes uint64
	gcCPU, busyCPU float64 // seconds: GC, and all non-idle Go CPU
}

var cpuClasses = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuClasses)
	return memCounters{
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCPU:   cpuClasses[0].Value.Float64(),
		busyCPU: cpuClasses[1].Value.Float64() - cpuClasses[2].Value.Float64(),
	}
}

func (m memCounters) sub(o memCounters) memCounters {
	return memCounters{
		mallocs: m.mallocs - o.mallocs,
		bytes:   m.bytes - o.bytes,
		gcCPU:   m.gcCPU - o.gcCPU,
		busyCPU: m.busyCPU - o.busyCPU,
	}
}

func (m *memCounters) add(o memCounters) {
	m.mallocs += o.mallocs
	m.bytes += o.bytes
	m.gcCPU += o.gcCPU
	m.busyCPU += o.busyCPU
}

// gcFrac is GC's share of the Go CPU time the deltas cover.
func (m memCounters) gcFrac() float64 {
	if m.busyCPU <= 0 {
		return 0
	}
	return m.gcCPU / m.busyCPU
}

// heapLive is the live heap right after a GC.
func heapLive() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
