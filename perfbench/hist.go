package main

import "math"

// Latency histograms of constant size: a run's samples must not grow the
// live heap, or the benchmark's own bookkeeping would change the GC pacing
// of the logs it measures as the run goes on.

const (
	wallBase    = 1e3   // ns: the lowest bucket's lower edge
	wallGrowth  = 1.001 // bucket width: 0.1% of its value
	wallBuckets = 16000 // up to wallBase·wallGrowth^wallBuckets ≈ 8.9 s
)

// wallHist is a log-bucketed histogram of nanosecond durations.
type wallHist struct {
	counts [wallBuckets]uint64
	total  uint64
}

func (h *wallHist) add(ns float64) {
	k := 0
	if ns > wallBase {
		k = min(int(math.Log(ns/wallBase)/math.Log(wallGrowth)), wallBuckets-1)
	}
	h.counts[k]++
	h.total++
}

// quantile returns the q-quantile, interpolating geometrically inside the
// bucket by the sample's rank among the bucket's samples.
func (h *wallHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total-1)
	var seen float64
	for k, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			frac := (rank - seen + 0.5) / float64(c)
			return wallBase * math.Pow(wallGrowth, float64(k)+frac)
		}
		seen += float64(c)
	}
	return wallBase * math.Pow(wallGrowth, wallBuckets)
}

// tickHist is an exact histogram of small non-negative integers.
type tickHist struct {
	counts []uint64
	total  uint64
}

func (h *tickHist) add(v int) {
	if v >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, v+1-len(h.counts))...)
	}
	h.counts[v]++
	h.total++
}

// value returns the sample of the given rank (0-based, ascending).
func (h *tickHist) value(rank uint64) float64 {
	var seen uint64
	for v, c := range h.counts {
		seen += c
		if rank < seen {
			return float64(v)
		}
	}
	return float64(len(h.counts) - 1)
}

// quantile interpolates linearly between the closest ranks, as quantile
// does on a sorted sample.
func (h *tickHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	pos := q * float64(h.total-1)
	lo := math.Floor(pos)
	a, b := h.value(uint64(lo)), h.value(uint64(math.Ceil(pos)))
	return a + (b-a)*(pos-lo)
}
