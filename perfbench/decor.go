package main

import (
	"reflect"
	"sync"
	"sync/atomic"

	"shiftgears"
	"shiftgears/internal/core"
	"shiftgears/internal/fabric"
	"shiftgears/internal/obs"
	"shiftgears/internal/rsm"
	"shiftgears/internal/sim"
)

// probes accumulates the traced run's spans: the time spent inside calls
// into each layer's public functions, measured from this package's
// decorators around those calls. All counters are atomic: the decorated
// calls may come from the fabric's or the mux's worker goroutines.
type probes struct {
	running atomic.Bool // inside a drive loop: spans count toward ticks

	prepareNs, prepareCalls atomic.Int64 // InstanceReplica.PrepareRound
	deliverNs, deliverCalls atomic.Int64 // InstanceReplica.DeliverRound
	exchangeNs, exchanges   atomic.Int64 // fabric.Fabric.Exchange
	pickNs, picks, prefix   atomic.Int64 // GearPolicy.Pick and its prefix lengths
	protoNs, protoCalls     atomic.Int64 // shiftgears.SlotProtocol, all calls
	protoRunNs, protoRun    atomic.Int64 // of which inside the drive loop
	procNs                  atomic.Int64 // single-shot: outer sim.Processor calls

	// core.Replica counters of correct replicas, read before Release.
	resolveOps, discoveryReads, peakTree atomic.Int64
}

// spans is the number of timed calls made inside the drive loop — the
// base of the instrumentation-cost estimate.
func (p *probes) spans() int64 {
	return p.prepareCalls.Load() + p.deliverCalls.Load() + p.exchanges.Load() + p.picks.Load() + p.protoRun.Load()
}

func (p *probes) addCounters(c core.Counters) {
	p.resolveOps.Add(int64(c.ResolveOps))
	p.discoveryReads.Add(int64(c.DiscoveryReads))
	for {
		old := p.peakTree.Load()
		if int64(c.PeakTreeNodes) <= old || p.peakTree.CompareAndSwap(old, int64(c.PeakTreeNodes)) {
			return
		}
	}
}

// slotProtocol is a timed shiftgears.SlotProtocol whose result is wrapped
// in a timedProtocol.
func (p *probes) slotProtocol(alg shiftgears.Algorithm, n, t, b, source int, correct []bool) (*timedProtocol, error) {
	t0 := now()
	proto, err := shiftgears.SlotProtocol(alg, n, t, b, source)
	d := now() - t0
	p.protoNs.Add(d)
	p.protoCalls.Add(1)
	if p.running.Load() {
		p.protoRunNs.Add(d)
		p.protoRun.Add(1)
	}
	if err != nil {
		return nil, err
	}
	tp := &timedProtocol{inner: proto, p: p, correct: correct, pool: poolHook(proto)}
	if gn, ok := proto.(rsm.GearNamer); ok {
		tp.name = gn.GearName()
	}
	return tp, nil
}

// prewarmer is the pool hook NewReplicatedLog calls on core protocols.
type prewarmer interface{ Prewarm(n int) error }

// poolHook finds a protocol's Prewarm hook. shiftgears.SlotProtocol
// returns its protocol behind a gear-naming wrapper that embeds it as an
// rsm.Protocol, which hides the hook from the method set;
// NewReplicatedLog reaches it one level down, and so does this.
func poolHook(p rsm.Protocol) prewarmer {
	if pw, ok := p.(prewarmer); ok {
		return pw
	}
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Struct {
		return nil
	}
	f := v.FieldByName("Protocol")
	if !f.IsValid() || !f.CanInterface() {
		return nil
	}
	inner, ok := f.Interface().(rsm.Protocol)
	if !ok || inner == nil {
		return nil
	}
	return poolHook(inner)
}

// timedProtocol decorates an rsm.Protocol: every instance replica it
// builds is a timedInstance. It forwards GearName and Prewarm, and its
// instances forward Release, so gear names, pre-warm and pooling behave
// exactly as in the library.
type timedProtocol struct {
	inner   rsm.Protocol
	p       *probes
	correct []bool
	name    string
	pool    prewarmer

	mu   sync.Mutex
	free []*timedInstance
}

func (tp *timedProtocol) Rounds() int      { return tp.inner.Rounds() }
func (tp *timedProtocol) GearName() string { return tp.name }

// Prewarm stocks the inner protocol's replica pool, when it has one.
func (tp *timedProtocol) Prewarm(n int) error {
	if tp.pool == nil {
		return nil
	}
	return tp.pool.Prewarm(n)
}

func (tp *timedProtocol) NewReplica(id int, initial shiftgears.Value) (rsm.InstanceReplica, error) {
	rep, err := tp.inner.NewReplica(id, initial)
	if err != nil {
		return nil, err
	}
	tp.mu.Lock()
	var ti *timedInstance
	if k := len(tp.free); k > 0 {
		ti = tp.free[k-1]
		tp.free = tp.free[:k-1]
	}
	tp.mu.Unlock()
	if ti == nil {
		ti = &timedInstance{owner: tp}
	}
	ti.inner, ti.correct = rep, tp.correct[id]
	return ti, nil
}

// timedInstance times one instance replica's round calls.
type timedInstance struct {
	owner   *timedProtocol
	inner   rsm.InstanceReplica
	correct bool
}

func (ti *timedInstance) ID() int                           { return ti.inner.ID() }
func (ti *timedInstance) Decided() (shiftgears.Value, bool) { return ti.inner.Decided() }
func (ti *timedInstance) Err() error                        { return ti.inner.Err() }

func (ti *timedInstance) PrepareRound(round int) [][]byte {
	t0 := now()
	out := ti.inner.PrepareRound(round)
	p := ti.owner.p
	p.prepareNs.Add(now() - t0)
	p.prepareCalls.Add(1)
	return out
}

func (ti *timedInstance) DeliverRound(round int, inbox [][]byte) {
	t0 := now()
	ti.inner.DeliverRound(round, inbox)
	p := ti.owner.p
	p.deliverNs.Add(now() - t0)
	p.deliverCalls.Add(1)
}

// Release reads a correct core replica's counters, forwards Release to
// a poolable inner replica, and returns the decorator to its pool.
func (ti *timedInstance) Release() {
	if cr, ok := ti.inner.(*core.Replica); ok && ti.correct {
		ti.owner.p.addCounters(cr.Counters())
	}
	if rel, ok := ti.inner.(interface{ Release() }); ok {
		rel.Release()
	}
	ti.inner = nil
	tp := ti.owner
	tp.mu.Lock()
	tp.free = append(tp.free, ti)
	tp.mu.Unlock()
}

// timedFabric times fabric.Fabric.Exchange.
type timedFabric struct {
	fabric.Fabric
	p *probes
}

func (tf timedFabric) Exchange(tick int, outs [][]sim.MuxFrame, ins [][][][]byte) error {
	t0 := now()
	err := tf.Fabric.Exchange(tick, outs, ins)
	tf.p.exchangeNs.Add(now() - t0)
	tf.p.exchanges.Add(1)
	return err
}

// timedPolicy times GearPolicy.Pick and records the prefix length it is
// handed.
type timedPolicy struct {
	inner shiftgears.GearPolicy
	p     *probes
}

func (tp timedPolicy) Name() string { return tp.inner.Name() }

func (tp timedPolicy) Pick(slot, source int, prefix []shiftgears.LogEntry) shiftgears.Algorithm {
	t0 := now()
	alg := tp.inner.Pick(slot, source, prefix)
	tp.p.pickNs.Add(now() - t0)
	tp.p.picks.Add(1)
	tp.p.prefix.Add(int64(len(prefix)))
	return alg
}

// timedProc times the outer sim.Processor calls of a single-shot
// network: the difference between Network.Run and their sum is the drive
// loop's own time.
type timedProc struct {
	sim.Processor
	p *probes
}

func (tp timedProc) PrepareRound(round int) [][]byte {
	t0 := now()
	out := tp.Processor.PrepareRound(round)
	tp.p.procNs.Add(now() - t0)
	return out
}

func (tp timedProc) DeliverRound(round int, inbox [][]byte) {
	t0 := now()
	tp.Processor.DeliverRound(round, inbox)
	tp.p.procNs.Add(now() - t0)
}

// timedCore times a single-shot core replica's round calls (inside the
// adversary wrapper of a faulty processor).
type timedCore struct {
	*core.Replica
	p *probes
}

func (tc timedCore) PrepareRound(round int) [][]byte {
	t0 := now()
	out := tc.Replica.PrepareRound(round)
	tc.p.prepareNs.Add(now() - t0)
	tc.p.prepareCalls.Add(1)
	return out
}

func (tc timedCore) DeliverRound(round int, inbox [][]byte) {
	t0 := now()
	tc.Replica.DeliverRound(round, inbox)
	tc.p.deliverNs.Add(now() - t0)
	tc.p.deliverCalls.Add(1)
}

// benchTracer is the traced run's obs.Tracer: it timestamps TickStart and
// SlotCommitted and counts every event (for the instrumentation-cost
// estimate). ref is the correct replica whose commits time the slots.
type benchTracer struct {
	ref    int
	events atomic.Int64

	mu         sync.Mutex
	tickStarts []int64
	commits    []int64 // per slot, ref's commit time
	lastCommit int64   // the latest commit on any replica: the end of the last tick
}

func newBenchTracer(ref, slots int) *benchTracer {
	return &benchTracer{ref: ref, commits: make([]int64, slots)}
}

func (bt *benchTracer) Emit(ev obs.Event) {
	bt.events.Add(1)
	switch ev.Type {
	case obs.TickStart:
		t := now()
		bt.mu.Lock()
		bt.tickStarts = append(bt.tickStarts, t)
		bt.mu.Unlock()
	case obs.SlotCommitted:
		t := now()
		bt.mu.Lock()
		if ev.Node == bt.ref {
			bt.commits[ev.Slot] = t
		}
		bt.lastCommit = t
		bt.mu.Unlock()
	}
}
