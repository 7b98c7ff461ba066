package core

import (
	"fmt"
	"sync"

	"shiftgears/internal/eigtree"
	"shiftgears/internal/faults"
	"shiftgears/internal/sim"
	"shiftgears/internal/trace"
)

// Counters accumulate the local-computation and space measures the paper's
// theorems bound.
type Counters struct {
	// ResolveOps counts child-value examinations during data conversion
	// (the paper's local computation time unit).
	ResolveOps int
	// DiscoveryNodes and DiscoveryReads count Fault Discovery Rule work.
	DiscoveryNodes int
	DiscoveryReads int
	// PeakTreeNodes is the largest Information Gathering Tree held (local
	// space).
	PeakTreeNodes int
	// Shifts counts shift operator applications.
	Shifts int
}

// Options disable individual mechanisms of the algorithms for the ablation
// experiment (experiments.E10Ablation). The zero value is the paper's algorithm.
// Disabling either mechanism voids the block-progress guarantee that
// Propositions 2 and 3 rest on — which is exactly what the ablation
// demonstrates.
type Options struct {
	// DisableDiscovery skips the Fault Discovery Rule entirely (both the
	// gathering-time and the conversion-time variant), so lists L_p stay
	// empty and nothing is ever masked.
	DisableDiscovery bool
	// DisableMasking keeps the discovery rule (lists grow) but never masks:
	// messages from listed processors are stored verbatim.
	DisableMasking bool
}

// Env holds the immutable, shareable pieces of one protocol configuration:
// the plan and the canonical enumerations. All replicas of a run share one
// Env, so the (potentially large) enumerations are built once. A
// replicated log keeps one Env per (algorithm, source) pair for all of its
// replicas and slots: a static log compiles them at construction, a
// gear-scheduled log fills one shared cache lazily, the first time any
// replica's policy picks the pair.
//
// Opts may be set after NewEnv and before replicas are created; it applies
// to every replica built from this Env.
type Env struct {
	Plan   *Plan
	Opts   Options
	gather *eigtree.Enum
	echo   *eigtree.Enum

	// Replica free list for GetReplica/Release. The instance-per-slot
	// lifecycle of the replicated log builds hundreds of short-lived
	// replicas per run; pooling keeps each one's tree arena, fault list,
	// and codec scratch warm. Synchronized: one Env is shared by every
	// node of a run, and slots start and finish on concurrent drive loops.
	mu   sync.Mutex
	free []*Replica
}

// NewEnv builds the enumerations the plan requires.
func NewEnv(plan *Plan) (*Env, error) {
	env := &Env{Plan: plan}
	if plan.NeedsGather() {
		e, err := eigtree.NewEnum(plan.N, plan.Source, false, plan.MaxGatherLevel)
		if err != nil {
			return nil, fmt.Errorf("core: gather enumeration: %w", err)
		}
		env.gather = e
	}
	if plan.NeedsEcho() {
		e, err := eigtree.NewEnum(plan.N, plan.Source, true, 2)
		if err != nil {
			return nil, fmt.Errorf("core: echo enumeration: %w", err)
		}
		env.echo = e
	}
	return env, nil
}

// Replica executes a Plan for one processor. It implements sim.Processor.
//
// The source follows the paper exactly: it broadcasts its initial value in
// round 1, decides on it, and halts. Every other replica gathers
// information, applies the Fault Discovery and Fault Masking Rules each
// round, shifts at segment boundaries, and decides at the end of the plan.
type Replica struct {
	env     *Env
	id      int
	initial eigtree.Value

	tree *eigtree.Tree
	list *faults.List
	log  *trace.Log

	segIdx   int
	segDone  int
	decided  bool
	decision eigtree.Value
	err      error

	counters Counters

	// Per-round scratch: the broadcast outbox (every destination shares
	// one payload) and the payload buffer it points at, both reused across
	// rounds. Sound under the sim.Processor contract — outbox payloads are
	// consumed or copied within their tick — and under the adversary
	// Strategy contract (strategies never retain or mutate honest
	// payloads in place).
	bcast   [][]byte
	payload []byte
	srcbuf  [1]byte
	cvals   []eigtree.Value // echoRound's converted mid-level scratch
}

var _ sim.Processor = (*Replica)(nil)

// NewReplica creates the replica with the given id. initial is the initial
// value, meaningful only for the source. log may be nil.
func NewReplica(env *Env, id int, initial eigtree.Value, log *trace.Log) (*Replica, error) {
	if id < 0 || id >= env.Plan.N {
		return nil, fmt.Errorf("core: replica id %d out of range [0, %d)", id, env.Plan.N)
	}
	r := &Replica{
		env:     env,
		id:      id,
		initial: initial,
		list:    faults.NewList(env.Plan.N),
		log:     log,
	}
	if id != env.Plan.Source {
		if len(env.Plan.Segments) == 0 {
			return nil, fmt.Errorf("core: plan has no segments")
		}
		r.tree = eigtree.NewTree(r.enumFor(env.Plan.Segments[0].Kind))
	}
	return r, nil
}

// GetReplica returns a replica for the given id, reusing a pooled one when
// available. Pooled replicas keep their tree arena, resolution scratch,
// fault-list storage, and outbox buffers, so in steady state a fresh
// consensus instance costs no allocation at all. Pair with Release.
func (env *Env) GetReplica(id int, initial eigtree.Value, log *trace.Log) (*Replica, error) {
	env.mu.Lock()
	var r *Replica
	if n := len(env.free); n > 0 {
		r = env.free[n-1]
		env.free = env.free[:n-1]
	}
	env.mu.Unlock()
	if r == nil {
		return NewReplica(env, id, initial, log)
	}
	if err := r.reset(id, initial, log); err != nil {
		return nil, err
	}
	return r, nil
}

// Prewarm stocks the replica pool with k ready-to-reset replicas, so a
// run's first window of GetReplica calls hits the pool instead of paying
// pool-warmup allocations mid-run — construction time is the right place
// for that cost, and it is exactly what the alloc benches exclude.
// Prewarmed replicas are built as non-source replicas: the source
// variant carries no tree, so a source-shaped pooled replica would
// re-allocate its arena on first non-source reset, while reset handles
// the other direction for free.
func (env *Env) Prewarm(k int) error {
	id := (env.Plan.Source + 1) % env.Plan.N
	if id == env.Plan.Source { // single-node plan: no non-source shape exists
		return nil
	}
	warmed := make([]*Replica, 0, k)
	for i := 0; i < k; i++ {
		r, err := NewReplica(env, id, 0, nil)
		if err != nil {
			return err
		}
		warmed = append(warmed, r)
	}
	env.mu.Lock()
	env.free = append(env.free, warmed...)
	env.mu.Unlock()
	return nil
}

// Release returns the replica to its Env's pool for reuse by a later
// GetReplica. The caller must not touch the replica afterwards.
func (r *Replica) Release() {
	env := r.env
	env.mu.Lock()
	env.free = append(env.free, r)
	env.mu.Unlock()
}

// reset restores a pooled replica to its just-constructed state for a new
// (id, initial) run, keeping every reusable buffer.
func (r *Replica) reset(id int, initial eigtree.Value, log *trace.Log) error {
	if id < 0 || id >= r.env.Plan.N {
		return fmt.Errorf("core: replica id %d out of range [0, %d)", id, r.env.Plan.N)
	}
	r.id = id
	r.initial = initial
	r.log = log
	r.list.Reset()
	r.segIdx = 0
	r.segDone = 0
	r.decided = false
	r.decision = 0
	r.err = nil
	r.counters = Counters{}
	if id != r.env.Plan.Source {
		if len(r.env.Plan.Segments) == 0 {
			return fmt.Errorf("core: plan has no segments")
		}
		want := r.enumFor(r.env.Plan.Segments[0].Kind)
		// A replica that last ran as the source has no tree; one whose run
		// ended in an echo segment has a tree of the wrong shape. Either
		// way the old arena is useless for the new enumeration.
		if r.tree == nil || r.tree.Enum() != want {
			r.tree = eigtree.NewTree(want)
		} else {
			r.tree.Reset()
		}
	}
	return nil
}

func (r *Replica) enumFor(kind SegmentKind) *eigtree.Enum {
	if kind == SegEcho {
		return r.env.echo
	}
	return r.env.gather
}

// ID implements sim.Processor.
func (r *Replica) ID() int { return r.id }

// Decided returns the decision value once the replica has irreversibly
// decided.
func (r *Replica) Decided() (eigtree.Value, bool) { return r.decision, r.decided }

// Err reports an internal protocol error (a bug, not Byzantine behavior:
// plans guarantee trees fit their enumerations).
func (r *Replica) Err() error { return r.err }

// Preferred returns the current preferred value, tree(s).
func (r *Replica) Preferred() eigtree.Value {
	if r.id == r.env.Plan.Source {
		return r.initial
	}
	return r.tree.Root()
}

// Faults returns the replica's list L_p.
func (r *Replica) Faults() *faults.List { return r.list }

// Counters returns the local computation/space counters.
func (r *Replica) Counters() Counters { return r.counters }

// PrepareRound implements sim.Processor. In round 1 only the source sends
// (its initial value); in every later round each undecided non-source
// replica broadcasts the leaves of its current tree — after a shift the
// tree is a bare root, so the broadcast naturally restarts at one value,
// which is precisely the "execute from round 2" semantics of the paper's
// shift operator.
func (r *Replica) PrepareRound(round int) [][]byte {
	if r.id == r.env.Plan.Source {
		if round != 1 {
			return nil
		}
		r.decide(1, r.initial)
		r.srcbuf[0] = byte(r.initial)
		return r.broadcast(r.srcbuf[:])
	}
	if round == 1 || r.decided || r.err != nil {
		return nil
	}
	r.payload = r.tree.AppendLeafPayload(r.payload[:0])
	return r.broadcast(r.payload)
}

// broadcast fills the replica's reusable outbox with payload for every
// destination (the behavior of a correct processor) — sim.Broadcast
// without the per-round allocation. The outbox and payload are valid for
// one tick.
func (r *Replica) broadcast(payload []byte) [][]byte {
	if r.bcast == nil {
		r.bcast = make([][]byte, r.env.Plan.N)
	}
	for j := range r.bcast {
		r.bcast[j] = payload
	}
	return r.bcast
}

// DeliverRound implements sim.Processor.
func (r *Replica) DeliverRound(round int, inbox [][]byte) {
	plan := r.env.Plan
	if r.id == plan.Source || r.decided || r.err != nil {
		return
	}
	if round == 1 {
		v := eigtree.Default
		if payload := inbox[plan.Source]; len(payload) == 1 {
			v = eigtree.Value(payload[0])
		}
		r.tree.SetRoot(v)
		r.log.Add(1, trace.KindRootStored, int(v), "")
		return
	}
	seg := plan.Segments[r.segIdx]
	switch seg.Kind {
	case SegGather:
		r.gatherRound(round, inbox, seg)
	case SegEcho:
		r.echoRound(round, inbox, seg)
	}
}

// storeRound adds a tree level from this round's messages, applying fault
// masking for known-faulty senders, then runs the Fault Discovery Rule and
// masks the just-stored entries of newly discovered processors. This is the
// per-round ordering prescribed in Section 3.
func (r *Replica) storeRound(round int, inbox [][]byte) bool {
	plan := r.env.Plan
	if _, err := r.tree.AddLevel(); err != nil {
		r.fail(err)
		return false
	}
	for q := 0; q < plan.N; q++ {
		if q == plan.Source {
			continue // the source halts after round 1; later messages are ignored
		}
		if r.list.Contains(q) && !r.env.Opts.DisableMasking {
			continue // Fault Masking Rule: treat as all default values
		}
		// StoreFromPayload fuses DecodeClaim with the store: a wrong-length
		// payload is a missing message (defaults kept), and the wire bytes
		// are read in place — no claim slice materializes.
		if err := r.tree.StoreFromPayload(q, inbox[q]); err != nil {
			r.fail(err)
			return false
		}
	}

	if !r.env.Opts.DisableDiscovery {
		newly, stats := faults.DiscoverStored(r.tree, r.list, plan.T, round)
		r.counters.DiscoveryNodes += stats.NodesChecked
		r.counters.DiscoveryReads += stats.ChildReads
		for _, p := range newly {
			if !r.env.Opts.DisableMasking {
				r.tree.ZeroSender(p)
			}
			r.log.Add(round, trace.KindDiscovery, p, "gathering")
		}
	}
	if nodes := r.tree.NodeCount(); nodes > r.counters.PeakTreeNodes {
		r.counters.PeakTreeNodes = nodes
	}
	return true
}

func (r *Replica) gatherRound(round int, inbox [][]byte, seg Segment) {
	if !r.storeRound(round, inbox) {
		return
	}
	r.segDone++
	if r.segDone < seg.Rounds {
		r.log.Add(round, trace.KindLevelStored, r.tree.Height(), "")
		return
	}

	// Segment complete: shift. tree(s) = conv(s).
	res, err := r.tree.Resolve(seg.Conv, r.env.Plan.T)
	if err != nil {
		r.fail(err)
		return
	}
	r.counters.ResolveOps += res.Ops()
	if seg.Conv == eigtree.ResolveSupport && !r.env.Opts.DisableDiscovery {
		// Algorithm A: Fault Discovery Rule During Conversion (Section 4.2).
		newly, stats := faults.DiscoverConverted(res, r.list, r.env.Plan.T, round)
		r.counters.DiscoveryNodes += stats.NodesChecked
		r.counters.DiscoveryReads += stats.ChildReads
		for _, p := range newly {
			r.log.Add(round, trace.KindDiscovery, p, "conversion")
		}
	}
	r.advanceSegment(round, res.Root().Value(), seg.Conv.String())
}

func (r *Replica) echoRound(round int, inbox [][]byte, seg Segment) {
	if !r.storeRound(round, inbox) {
		return
	}
	if r.tree.Height() == 2 {
		// Three levels: reorder leaves (swap s·p·q ↔ s·q·p), then
		// shift_{3→2}: every intermediate vertex takes its subtree's
		// majority and the leaves are dropped.
		if err := r.tree.Reorder(); err != nil {
			r.fail(err)
			return
		}
		res, err := r.tree.Resolve(eigtree.ResolveMajority, r.env.Plan.T)
		if err != nil {
			r.fail(err)
			return
		}
		r.counters.ResolveOps += res.Ops()
		mid := res.LevelValues(1)
		if cap(r.cvals) < len(mid) {
			r.cvals = make([]eigtree.Value, len(mid))
		}
		vals := r.cvals[:len(mid)]
		for i, cv := range mid {
			vals[i] = cv.Value()
		}
		if err := r.tree.SetLevelValues(1, vals); err != nil {
			r.fail(err)
			return
		}
		r.tree.DropLeaves()
		r.counters.Shifts++
	}
	r.segDone++
	if r.segDone < seg.Rounds {
		r.log.Add(round, trace.KindLevelStored, r.tree.Height(), "echo")
		return
	}

	// Segment complete: final shift_{2→1} yields the decision value.
	res, err := r.tree.Resolve(eigtree.ResolveMajority, r.env.Plan.T)
	if err != nil {
		r.fail(err)
		return
	}
	r.counters.ResolveOps += res.Ops()
	r.advanceSegment(round, res.Root().Value(), "resolve")
}

// advanceSegment installs the shifted preferred value and moves to the next
// segment, or decides if the plan is exhausted.
func (r *Replica) advanceSegment(round int, v eigtree.Value, note string) {
	r.counters.Shifts++
	r.segIdx++
	r.segDone = 0
	if r.segIdx == len(r.env.Plan.Segments) {
		r.decide(round, v)
		return
	}
	next := r.env.Plan.Segments[r.segIdx]
	if want := r.enumFor(next.Kind); r.tree.Enum() != want {
		r.tree = eigtree.NewTree(want)
		r.log.Add(round, trace.KindPhase, int(v), "enter "+kindName(next.Kind))
	}
	r.tree.SetRoot(v)
	r.log.Add(round, trace.KindShift, int(v), note)
}

func kindName(k SegmentKind) string {
	if k == SegEcho {
		return "echo (Algorithm C)"
	}
	return "gathering"
}

func (r *Replica) decide(round int, v eigtree.Value) {
	r.decided = true
	r.decision = v
	r.log.Add(round, trace.KindDecision, int(v), "")
}

func (r *Replica) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("core: replica %d: %w", r.id, err)
	}
}
