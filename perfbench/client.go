package main

import (
	"fmt"
	"math/rand"

	"shiftgears"
)

// target is the replica-set surface the closed-loop client drives: the
// public ReplicatedLog or a bench-composed rsm replica set.
type target interface {
	submit(replica int, cmd shiftgears.Value) error
	// tick is the replica's completed-tick count: 0 before the run, the
	// committing tick minus one inside an apply callback.
	tick(replica int) int
	pending(replica int) int
}

type publicTarget struct{ l *shiftgears.ReplicatedLog }

func (p publicTarget) submit(id int, cmd shiftgears.Value) error { return p.l.Submit(id, cmd) }
func (p publicTarget) tick(id int) int                           { return p.l.Replica(id).Mux().Ticks() }
func (p publicTarget) pending(id int) int                        { return p.l.Replica(id).Pending() }

// outstandingCmd is a submitted command the client has not seen commit.
type outstandingCmd struct {
	v    shiftgears.Value
	at   int64 // now() at submit; 0 for the initial fill, queued before Run
	tick int   // the receiving replica's tick at submit
}

// client is the closed-loop load generator and the per-source order
// checker. Every correct replica receives its own seeded command stream
// and keeps `outstanding` commands in flight; a command counts as
// served when the slot its receiving replica sourced commits there.
// Values are one byte, so exactly-once in-order delivery is checked per
// source, positionally against the submission FIFO.
type client struct {
	t           target
	faulty      []bool
	outstanding int
	rngs        []*rand.Rand
	fifo        [][]outstandingCmd

	submitted  int
	taken      int // submitted commands correct replicas took into slots
	committed  int
	sourced    int // slots sourced by correct replicas
	emptySlots int // of those, slots that committed no command
	tickSum    int // sum of the committed commands' tick latencies
	// wall and ticks take the latency samples, when the run records
	// them, of the commands submitted during Run. The initial fill is left
	// out: its latency is the start-up of a fresh log (first ticks, the TCP
	// mesh's dial-up), which a long-lived log pays once but the benchmark's
	// short logs pay in about 1% of their commands, right at the p99.
	wall       *wallHist
	ticks      *tickHist
	violations []string
}

func newClient(n int, faulty []int, outstanding int, seed uint64) *client {
	c := &client{
		faulty:      make([]bool, n),
		outstanding: outstanding,
		rngs:        make([]*rand.Rand, n),
		fifo:        make([][]outstandingCmd, n),
	}
	for _, f := range faulty {
		c.faulty[f] = true
	}
	for id := range c.rngs {
		c.rngs[id] = rand.New(rand.NewSource(int64(mix(seed, uint64(id)))))
	}
	return c
}

func (c *client) violate(format string, args ...any) {
	if len(c.violations) < 8 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

func (c *client) submit(id int, at int64) {
	v := shiftgears.Value(1 + c.rngs[id].Intn(255))
	tick := c.t.tick(id)
	if err := c.t.submit(id, v); err != nil {
		c.violate("submit to replica %d: %v", id, err)
		return
	}
	c.submitted++
	c.fifo[id] = append(c.fifo[id], outstandingCmd{v: v, at: at, tick: tick})
}

// fill queues the initial outstanding commands at every correct replica.
func (c *client) fill(t target) {
	c.t = t
	for id, bad := range c.faulty {
		if bad {
			continue
		}
		for k := 0; k < c.outstanding; k++ {
			c.submit(id, 0)
		}
	}
}

// apply is the WithLogApply callback: at the receiving replica of the
// entry's source, it checks the committed commands against the
// submission FIFO, samples the latency of those submitted during Run,
// and submits replacements.
func (c *client) apply(id int, e shiftgears.LogEntry) {
	if e.Source != id || c.faulty[id] {
		return
	}
	at := now()
	tick := c.t.tick(id) + 1
	c.sourced++
	if len(e.Commands) == 0 {
		c.emptySlots++
	}
	q := c.fifo[id]
	for i, v := range e.Commands {
		if i >= len(q) || q[i].v != v {
			c.violate("replica %d slot %d: committed command %d out of submission order", id, e.Slot, v)
			return
		}
		c.tickSum += tick - q[i].tick
		if c.wall != nil && q[i].at != 0 {
			c.wall.add(float64(at - q[i].at))
			c.ticks.add(tick - q[i].tick)
		}
	}
	c.fifo[id] = q[len(e.Commands):]
	c.committed += len(e.Commands)
	for range e.Commands {
		c.submit(id, at)
	}
}

// unserved counts the commands still queued at correct replicas.
func (c *client) unserved() int {
	u := 0
	for id, q := range c.fifo {
		if !c.faulty[id] {
			u += len(q)
		}
	}
	return u
}

// check verifies the run's end state against the client's record: every
// command a correct replica took into a slot committed exactly once, in
// submission order, and no correct source committed an empty slot.
func (c *client) check(entries []shiftgears.LogEntry, slots int, latency shiftgears.LatencySummary) {
	if len(entries) != slots {
		c.violate("agreed log holds %d of %d slots", len(entries), slots)
	}
	agreed := 0
	for _, e := range entries {
		agreed += len(e.Commands)
	}
	if agreed != c.committed {
		c.violate("agreed log holds %d commands, correct sources committed %d", agreed, c.committed)
	}
	c.taken = c.submitted
	for id, q := range c.fifo {
		if c.faulty[id] {
			continue
		}
		p := c.t.pending(id)
		c.taken -= p
		if p != len(q) {
			c.violate("replica %d: %d commands unaccounted for (queued %d, outstanding %d)", id, len(q)-p, p, len(q))
		}
	}
	if c.emptySlots > 0 {
		c.violate("%d slots sourced by correct replicas committed no command", c.emptySlots)
	}
	if latency.Count != uint64(c.committed) {
		c.violate("log latency histogram counts %d commands, client saw %d commit", latency.Count, c.committed)
	} else if c.committed > 0 {
		mean := float64(c.tickSum) / float64(c.committed)
		if d := mean - latency.Mean; d > 1e-6 || d < -1e-6 {
			c.violate("mean tick latency %.4f, log reports %.4f", mean, latency.Mean)
		}
	}
}
