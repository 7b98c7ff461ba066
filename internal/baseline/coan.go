package baseline

import "math"

// CoanPoint is one point of Coan's rounds-versus-message-length trade-off
// (Coan 1986, 1987), the comparator of the paper's introduction: for a
// message-size budget of O(n^b) bits, Coan's families achieve roughly the
// same round counts as Algorithms A and B, but at the cost of local
// computation (and space) exponential in t, because each processor locally
// simulates the full exponential-information protocol between compression
// points.
//
// The paper compares trade-off curves, not implementations, so the
// comparator is reproduced analytically (experiments.E6Tradeoff): Rounds
// and MessageNodes mirror the shared trade-off, LocalOps carries the
// exponential term that Algorithms A and B eliminate.
type CoanPoint struct {
	N, T, B int
	// Rounds is the trade-off's round count at message budget O(n^b):
	// t + O(t/b) + O(1), instantiated as the same closed form Algorithm B
	// achieves (Theorem 3) — the paper's claim is that the families
	// "obtain the same rounds to message length trade-off".
	Rounds int
	// MessageNodes is the message budget in values, n^b.
	MessageNodes float64
	// LocalOps models the exponential local computation: the processor
	// reconstructs O(n^t) information-gathering state per block, times the
	// number of blocks.
	LocalOps float64
}

// CoanModel evaluates the analytic comparator at (n, t, b), b ≥ 2.
func CoanModel(n, t, b int) CoanPoint {
	rounds := t + 1
	if b < t {
		rounds = t + 1 + (t-1)/(b-1)
	}
	blocks := 1
	if b < t {
		blocks = (t-1)/(b-1) + 1
	}
	return CoanPoint{
		N: n, T: t, B: b,
		Rounds:       rounds,
		MessageNodes: math.Pow(float64(n), float64(b)),
		LocalOps:     float64(blocks) * math.Pow(float64(n), float64(t)),
	}
}
