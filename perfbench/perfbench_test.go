package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"shiftgears"
)

func TestWallHistQuantileTracksSortedSample(t *testing.T) {
	var h wallHist
	var xs []float64
	for i := 1; i <= 10000; i++ {
		ns := float64(i) * 1e3
		h.add(ns)
		xs = append(xs, ns)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := quantile(append([]float64(nil), xs...), q)
		if got := h.quantile(q); math.Abs(got-want)/want > 0.002 {
			t.Errorf("q%.2f = %.0f, sorted sample gives %.0f", q, got, want)
		}
	}
}

func TestTickHistQuantileMatchesSortedSample(t *testing.T) {
	var h tickHist
	var xs []float64
	for i := 0; i < 1000; i++ {
		v := (i * 7919) % 31
		h.add(v)
		xs = append(xs, float64(v))
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got, want := h.quantile(q), quantile(append([]float64(nil), xs...), q); got != want {
			t.Errorf("q%.2f = %v, sorted sample gives %v", q, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"shiftgears/internal/eigtree.(*Tree).Store":          "eigtree",
		"shiftgears/internal/rsm.(*Replica).startSlot.func1": "rsm",
		"shiftgears.(*ReplicatedLog).Run":                    "shiftgears",
		"shiftgears/internal/shard.Drive":                    "other",
		"main.(*timedInstance).PrepareRound":                 "bench",
		"math/rand.(*rngSource).Int63":                       "",
		"runtime.mallocgc":                                   "",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

func TestProfileSamplesLandInBenchBucket(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	cs := cpuShares{}
	if err := cs.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if cs.total() == 0 || cs["bench"]*2 < cs.total() {
		t.Errorf("samples %v: want most of them in the bench bucket", cs)
	}
}

// queueTarget stands in for a replica set: it only counts queued commands.
type queueTarget []int

func (q queueTarget) submit(id int, _ shiftgears.Value) error { q[id]++; return nil }
func (q queueTarget) tick(int) int                            { return 0 }
func (q queueTarget) pending(id int) int                      { return q[id] }

func TestClientFlagsOutOfOrderAndEmptySlots(t *testing.T) {
	take := func(c *client, q queueTarget, id, k int) []shiftgears.Value {
		var vs []shiftgears.Value
		for _, o := range c.fifo[id][:k] {
			vs = append(vs, o.v)
		}
		q[id] -= k
		return vs
	}

	q := queueTarget{0, 0}
	c := newClient(2, nil, 3, 1)
	c.fill(q)
	cmds := take(c, q, 0, 2)
	c.apply(0, shiftgears.LogEntry{Slot: 0, Source: 0, Commands: cmds})
	c.apply(1, shiftgears.LogEntry{Slot: 0, Source: 0, Commands: cmds}) // not the receiver: ignored
	if len(c.violations) != 0 || c.committed != 2 || c.submitted != 8 {
		t.Fatalf("in-order commit: violations %v, committed %d, submitted %d", c.violations, c.committed, c.submitted)
	}

	swapped := take(c, q, 1, 2)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if swapped[0] != swapped[1] {
		c.apply(1, shiftgears.LogEntry{Slot: 1, Source: 1, Commands: swapped})
		if len(c.violations) == 0 {
			t.Error("out-of-order commit not flagged")
		}
	}

	c = newClient(2, nil, 1, 1)
	c.fill(queueTarget{1, 1})
	c.apply(0, shiftgears.LogEntry{Slot: 0, Source: 0})
	c.check([]shiftgears.LogEntry{{Slot: 0, Source: 0}}, 1, shiftgears.LatencySummary{})
	if len(c.violations) == 0 {
		t.Error("empty slot of a correct source not flagged")
	}
}

func TestClientSamplesOnlyCommandsSubmittedDuringRun(t *testing.T) {
	q := queueTarget{0}
	c := newClient(1, nil, 2, 1)
	c.wall, c.ticks = &wallHist{}, &tickHist{}
	c.fill(q)
	commit := func(slot int) {
		var vs []shiftgears.Value
		for _, o := range c.fifo[0][:2] {
			vs = append(vs, o.v)
		}
		q[0] -= 2
		c.apply(0, shiftgears.LogEntry{Slot: slot, Source: 0, Commands: vs})
	}
	commit(0)
	if c.wall.total != 0 || c.ticks.total != 0 || c.committed != 2 {
		t.Fatalf("initial fill: %d wall and %d tick samples, %d committed; want 0, 0, 2", c.wall.total, c.ticks.total, c.committed)
	}
	commit(1)
	if c.wall.total != 2 || c.ticks.total != 2 || len(c.violations) != 0 {
		t.Fatalf("replacements: %d wall and %d tick samples, violations %v; want 2, 2, none", c.wall.total, c.ticks.total, c.violations)
	}
}
