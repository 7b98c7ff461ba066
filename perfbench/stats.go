package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// clockBase anchors now(): time.Since on a monotonic reading costs one
// clock read, half of what a time.Now pair costs in the probes.
var clockBase = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(clockBase)) }

// mix derives an independent 64-bit seed from a seed and a coordinate
// (splitmix64 finalizer).
func mix(seed uint64, coord uint64) uint64 {
	x := seed ^ (coord+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
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

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// A small shared VM switches between a fast and a slow state every few
// seconds, in proportions that drift from minute to minute (README.md,
// Noise). A run's median log flips between the two states with the
// proportion; the decile on the slow side stays in the slow state while
// a tenth of the run is there. So ops_per_s and op_p50_ms are these
// deciles of a run's per-log (per-batch, per-chunk) figures.

// slowRate is the 10th percentile of per-sample rates.
func slowRate(rates []float64) float64 {
	return quantile(append([]float64(nil), rates...), 0.1)
}

// slowTime is the 90th percentile of per-sample times.
func slowTime(times []float64) float64 {
	return quantile(append([]float64(nil), times...), 0.9)
}

// metric is one reported number: its value, unit, and the sample count
// behind it (printed, not part of the JSON result).
type metric struct {
	name    string
	value   float64
	unit    string
	samples string
}

// report collects a run's metrics in print order.
type report struct {
	metrics []metric
}

func (r *report) add(name string, value float64, unit, samples string) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

// print writes one human-readable line per metric to stdout.
func (r *report) print() {
	for _, m := range r.metrics {
		fmt.Printf("metric %-36s %16.6g %-10s %s\n", m.name, m.value, m.unit, m.samples)
	}
}

// json renders the metrics object of the result line, restricted to and
// ordered by names. A missing metric, or a unit that differs from the
// manifest's (when units is non-nil), is a bug in the benchmark.
func (r *report) json(names []string, units map[string]string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		var m *metric
		for k := range r.metrics {
			if r.metrics[k].name == name {
				m = &r.metrics[k]
			}
		}
		if m == nil {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", name)
			os.Exit(2)
		}
		if u, ok := units[name]; units != nil && (!ok || u != m.unit) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has unit %s, BENCHMARK.json says %s\n", name, m.unit, u)
			os.Exit(2)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(&b, "%q: {\"value\": %s, \"unit\": %q}", name, formatFloat(v), m.unit)
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat prints a float with all its significant digits.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
