package shiftgears

import (
	"fmt"
	"runtime"
	"sync"

	"shiftgears/internal/baseline"
	"shiftgears/internal/core"
	"shiftgears/internal/eigtree"
	"shiftgears/internal/extensions"
	"shiftgears/internal/fabric"
	"shiftgears/internal/rsm"
	"shiftgears/internal/sim"
)

// LogEntry is one committed slot of a replicated log.
type LogEntry = rsm.Entry

// Chaos is a deterministic fault schedule for the "mem" fabric: seeded
// per-link drops and late frames on victim nodes, within-bound delivery
// jitter, partitions that heal, and crash/restart windows. See
// fabric.Plan for the semantics and the fault-model caveats.
type Chaos = fabric.Plan

// ChaosPartition is one tick-ranged network split of a Chaos plan.
type ChaosPartition = fabric.Partition

// ChaosCrash is one tick-ranged single-node outage of a Chaos plan.
type ChaosCrash = fabric.Crash

// LogConfig describes a replicated log: a pipeline of agreement slots,
// each slot batching client commands under a rotating source, executed by
// any of the package's algorithms.
type LogConfig struct {
	// Algorithm runs every slot; SlotAlgorithm, when non-nil, overrides it
	// per slot (the pipeline handles mixed round counts).
	Algorithm     Algorithm
	SlotAlgorithm func(slot int) Algorithm
	// GearPolicy, when non-nil, overrides both: each slot's algorithm is
	// picked dynamically, at the tick the slot enters the pipeline
	// window, as a pure function of the committed prefix (see GearPolicy
	// for the determinism contract). Built-in policies: Downshift,
	// Blacklist.
	GearPolicy GearPolicy
	// N, T, B as in Config; every slot shares them.
	N, T, B int
	// Slots is the log length; Window the pipelining depth (default 1);
	// BatchSize the commands per slot (default 1).
	Slots, Window, BatchSize int
	// Workers bounds each replica's per-tick slot worker pool: the
	// window's active slots prepare and consume their rounds concurrently
	// (1 = sequential). Wire bytes and schedules are identical at any
	// worker count. Zero picks a default: sequential on the in-process
	// fabrics (where the replicas already run concurrently and more
	// goroutines just contend), and GOMAXPROCS/N per replica — at least
	// 1, at most Window — on the "tcp" fabric, where real sockets leave
	// cores idle during the exchange.
	Workers int
	// Faulty lists Byzantine replicas; Strategy and Seed drive them as in
	// Config. Faulty replicas are Byzantine in every slot, including the
	// slots they source.
	Faulty   []int
	Strategy string
	Seed     int64
	// Parallel fans the drive loop's per-replica work across goroutines.
	Parallel bool
	// Fabric selects the substrate the pipeline runs over: "sim" (or
	// empty — the in-process fabric), "mem" (the fault-injecting
	// in-memory fabric, configured by Chaos), or "tcp" (a loopback TCP
	// mesh). All fabrics run the same drive loop and commit the same
	// logs on fault-free schedules.
	Fabric string
	// TCP is the legacy spelling of Fabric: "tcp".
	TCP bool
	// Chaos is the "mem" fabric's fault plan (nil = fault-free, which is
	// byte-identical to "sim"). Replicas the plan's omission-class
	// faults touch (Chaos.Affected) are degraded beyond the fault
	// model's guarantee, so they are excluded from the agreement check
	// like Byzantine replicas and reported in LogResult.ChaosVictims;
	// keeping len(Affected ∪ Faulty) ≤ T keeps the run inside the
	// paper's model, where the remaining replicas must agree. On a
	// gear-scheduled log every affected replica must also be listed in
	// Faulty: an honest replica with a degraded prefix would resolve
	// divergent gears.
	Chaos *Chaos
	// Tracer, if non-nil, installs the flight recorder on the run: the
	// drive runtime's tick and traffic events, every replica's gear and
	// commit events, and — on the mem fabric — every seeded fault
	// decision stream into it (see the obs sinks re-exported by this
	// package: TraceRing, TraceJSONL, TraceMetrics). Nil is tracing off:
	// the hot paths run their untraced instructions (zero overhead, see
	// doc.go).
	Tracer Tracer
}

// LogResult reports a completed replicated-log run.
type LogResult struct {
	// Entries is the committed log of a correct replica (all correct
	// replicas hold the same one when Agreement is true).
	Entries []LogEntry
	// Agreement: every correct replica committed an identical log.
	Agreement bool
	// Committed counts the commands in the agreed log.
	Committed int
	// Ticks is the number of global synchronous rounds the pipeline used;
	// SequentialTicks is what window 1 would have used (the sum of every
	// slot's round count) — the pipelining denominator.
	Ticks, SequentialTicks int
	// Gears is the per-slot algorithm the log actually ran: the static
	// configuration, or the gear policy's resolved picks.
	Gears []Algorithm
	// Pending counts commands still queued at correct replicas when the
	// log ended: they never got a slot, because the log ran out of slots
	// — or because a gear policy no-op'd the slots they were waiting for
	// (Blacklist convicts any source whose sourced slot committed all
	// no-ops, so outside its saturated-workload regime a correct but
	// momentarily idle source loses its later commands). Agreement is
	// about the committed prefix; check Pending for liveness.
	Pending int

	// ChaosVictims lists the replicas the Chaos plan's omission-class
	// faults touched: their local logs are degraded beyond the fault
	// model's guarantee, so Agreement is checked over the rest.
	ChaosVictims []int

	// Traffic counters, fabric-uniform: every fabric counts the
	// per-instance frames delivered to the replicas it hosts
	// (cluster-wide on sim/mem/loopback-tcp), so the fabrics' numbers
	// are directly comparable.
	MaxMessageBytes, TotalBytes, Messages int

	// Latency summarizes submit→commit latency in global ticks, merged
	// over the correct, unaffected replicas (each replica samples the
	// commands it sourced — the submit tick is only known there). Always
	// measured; Count is 0 when no commands were submitted.
	Latency LatencySummary
}

// ReplicatedLog is multi-shot agreement as a service: Submit commands to
// any replica, Run the pipeline, read the identical committed logs.
type ReplicatedLog struct {
	cfg      LogConfig
	faulty   map[int]bool
	affected []int // chaos victims, excluded from the agreement check
	mem      *fabric.Mem
	replicas []*rsm.Replica
	ran      bool

	gearMu sync.Mutex
	gears  []Algorithm // per-slot resolved algorithm (replica 0's picks)

	// lat is the run's merged submit→commit histogram, kept on the struct
	// (not a Run local) so MultiLog can fold shard histograms together —
	// LogResult.Latency is its summarized, no-longer-mergeable view.
	lat Histogram
}

// LogOption configures a ReplicatedLog.
type LogOption func(*logOptions)

type logOptions struct {
	apply func(replica int, e LogEntry)
	// gearResolver, when non-nil, picks replica id's resolver in place of
	// the log's shared one (tests compare against per-replica caches).
	gearResolver func(id int) *gearResolver
}

// WithLogApply installs a state-machine callback invoked once per replica
// per committed entry, in slot order (Byzantine replicas included — their
// shadow state is equally deterministic; filter by replica id if
// unwanted).
func WithLogApply(f func(replica int, e LogEntry)) LogOption {
	return func(o *logOptions) { o.apply = f }
}

// SlotProtocol builds the rsm agreement machinery for one slot: the given
// algorithm with the given parameters and source. It is the bridge
// between this package's algorithm catalog and internal/rsm, exported for
// cmd/logserver-style deployments that wire rsm.Config directly.
func SlotProtocol(alg Algorithm, n, t, b, source int) (rsm.Protocol, error) {
	proto, err := slotProtocol(alg, n, t, b, source)
	if err != nil {
		return nil, err
	}
	// The wrapper carries the algorithm's name to the flight recorder
	// (rsm.GearNamer): GearResolved events name the gear a slot actually
	// ran, which is the trace's whole point on a gear-scheduled log.
	return namedProtocol{Protocol: proto, name: alg.String()}, nil
}

func slotProtocol(alg Algorithm, n, t, b, source int) (rsm.Protocol, error) {
	if alg == NoOpSlot {
		return noopSlotProtocol{}, nil
	}
	info, err := buildPlanInfo(Config{Algorithm: alg, N: n, T: t, B: b, Source: source})
	if err != nil {
		return nil, err
	}
	switch alg {
	case PSL:
		enum, err := baseline.NewPSLEnum(n, source, t)
		if err != nil {
			return nil, err
		}
		return pslSlotProtocol{enum: enum, t: t, rounds: info.rounds}, nil
	case PhaseQueen:
		return queenSlotProtocol{n: n, t: t, source: source, rounds: info.rounds}, nil
	case Multivalued:
		return reducerSlotProtocol{n: n, t: t, source: source, rounds: info.rounds}, nil
	default:
		env, err := core.NewEnv(info.plan)
		if err != nil {
			return nil, err
		}
		return coreSlotProtocol{env: env, rounds: info.rounds}, nil
	}
}

// namedProtocol decorates a slot protocol with its algorithm name for
// the flight recorder.
type namedProtocol struct {
	rsm.Protocol
	name string
}

// GearName implements rsm.GearNamer.
func (p namedProtocol) GearName() string { return p.name }

type coreSlotProtocol struct {
	env    *core.Env
	rounds int
}

func (p coreSlotProtocol) Rounds() int { return p.rounds }
func (p coreSlotProtocol) NewReplica(id int, initial Value) (rsm.InstanceReplica, error) {
	// GetReplica draws from the Env's pool: slots released at finishSlot
	// donate their whole allocation footprint (tree arena, fault list,
	// outbox scratch) to the slots that follow them through the window.
	return p.env.GetReplica(id, initial, nil)
}

// Prewarm implements prewarmer by stocking the Env's replica pool.
func (p coreSlotProtocol) Prewarm(n int) error { return p.env.Prewarm(n) }

// prewarmer is the optional pool hook a slot protocol exposes so
// NewReplicatedLog can pay pool-warmup allocations at construction
// instead of during the first window's ticks. Only the core (tree-based)
// protocols pool today; the baseline and extension replicas are small
// enough that per-slot construction stays cheap.
type prewarmer interface{ Prewarm(n int) error }

type pslSlotProtocol struct {
	enum      *eigtree.Enum
	t, rounds int
}

func (p pslSlotProtocol) Rounds() int { return p.rounds }
func (p pslSlotProtocol) NewReplica(id int, initial Value) (rsm.InstanceReplica, error) {
	return baseline.NewPSLReplica(p.enum, id, p.t, initial, nil)
}

type queenSlotProtocol struct {
	n, t, source, rounds int
}

func (p queenSlotProtocol) Rounds() int { return p.rounds }
func (p queenSlotProtocol) NewReplica(id int, initial Value) (rsm.InstanceReplica, error) {
	return extensions.NewQueenReplica(p.n, p.t, p.source, id, initial, nil)
}

type reducerSlotProtocol struct {
	n, t, source, rounds int
}

func (p reducerSlotProtocol) Rounds() int { return p.rounds }
func (p reducerSlotProtocol) NewReplica(id int, initial Value) (rsm.InstanceReplica, error) {
	return extensions.NewReducerReplica(p.n, p.t, p.source, id, initial, nil)
}

// NewReplicatedLog validates the configuration and builds every replica's
// engine. Submit commands, then Run.
func NewReplicatedLog(cfg LogConfig, opts ...LogOption) (*ReplicatedLog, error) {
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 1
	}
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("shiftgears: log needs at least 1 slot, have %d", cfg.Slots)
	}
	if cfg.SlotAlgorithm == nil && cfg.Algorithm == 0 && cfg.GearPolicy == nil {
		return nil, fmt.Errorf("shiftgears: log needs an Algorithm, SlotAlgorithm, or GearPolicy")
	}
	// A policy that enumerates its gears gets them validated now: an
	// inadmissible gear (Downshift's default AlgorithmB low gear needs
	// n ≥ 4t+1) is a configuration error, not something to discover
	// mid-run when the shift first fires.
	if gl, ok := cfg.GearPolicy.(GearLister); ok {
		for _, alg := range gl.Gears() {
			if alg == NoOpSlot {
				continue
			}
			if _, err := buildPlanInfo(Config{Algorithm: alg, N: cfg.N, T: cfg.T, B: cfg.B}); err != nil {
				return nil, fmt.Errorf("shiftgears: gear policy %s: gear %v inadmissible: %w", cfg.GearPolicy.Name(), alg, err)
			}
		}
	}
	faulty := make(map[int]bool, len(cfg.Faulty))
	for _, f := range cfg.Faulty {
		if f < 0 || f >= cfg.N {
			return nil, fmt.Errorf("shiftgears: faulty id %d out of range [0, %d)", f, cfg.N)
		}
		faulty[f] = true
	}
	stratName := cfg.Strategy
	if stratName == "" {
		stratName = "splitbrain"
	}

	// Normalize and validate the fabric selection.
	fabricName := cfg.Fabric
	if fabricName == "" {
		fabricName = "sim"
	}
	if cfg.TCP {
		if cfg.Fabric != "" && cfg.Fabric != "tcp" {
			return nil, fmt.Errorf("shiftgears: TCP conflicts with Fabric %q", cfg.Fabric)
		}
		fabricName = "tcp"
	}
	switch fabricName {
	case "sim", "mem", "tcp":
	default:
		return nil, fmt.Errorf("shiftgears: unknown fabric %q (want sim, mem, or tcp)", fabricName)
	}
	if cfg.Chaos != nil && fabricName != "mem" {
		return nil, fmt.Errorf("shiftgears: Chaos requires the mem fabric, not %q", fabricName)
	}
	cfg.Fabric = fabricName

	var o logOptions
	for _, opt := range opts {
		opt(&o)
	}

	l := &ReplicatedLog{
		cfg: cfg, faulty: faulty,
		replicas: make([]*rsm.Replica, cfg.N),
		gears:    make([]Algorithm, cfg.Slots),
	}
	if fabricName == "mem" {
		plan := Chaos{}
		if cfg.Chaos != nil {
			plan = *cfg.Chaos
		}
		mem, err := fabric.NewMem(cfg.N, plan)
		if err != nil {
			return nil, fmt.Errorf("shiftgears: %w", err)
		}
		l.mem = mem
		l.affected = plan.Affected()
		unaffectedCorrect := 0
		for id := 0; id < cfg.N; id++ {
			hit := faulty[id]
			for _, v := range l.affected {
				if v == id {
					hit = true
				}
			}
			if !hit {
				unaffectedCorrect++
			}
		}
		if unaffectedCorrect == 0 {
			return nil, fmt.Errorf("shiftgears: chaos plan and faulty set cover all %d replicas: no unaffected correct replica left to agree", cfg.N)
		}
		// A chaos-degraded but honest replica holds a degraded committed
		// prefix; on a gear-scheduled log it would resolve divergent gears
		// and kill the run, so the plan's victims must be Byzantine-
		// configured (whose gear handling already runs on shadow state).
		if cfg.GearPolicy != nil {
			for _, v := range l.affected {
				if !faulty[v] {
					return nil, fmt.Errorf("shiftgears: gear-scheduled log: chaos victim %d must also be in Faulty (a degraded honest prefix diverges the gear schedule)", v)
				}
			}
		}
	}

	rcfg := rsm.Config{
		N: cfg.N, Slots: cfg.Slots, Window: cfg.Window, BatchSize: cfg.BatchSize,
		Workers: cfg.Workers, Tracer: cfg.Tracer,
	}
	if rcfg.Workers == 0 && cfg.Fabric == "tcp" {
		// All N replicas share this process, so split the cores among
		// them; more workers than window slots cannot be used.
		w := runtime.GOMAXPROCS(0) / cfg.N
		if w < 1 {
			w = 1
		}
		if w > cfg.Window {
			w = cfg.Window
		}
		rcfg.Workers = w
	}
	if l.mem != nil && cfg.Tracer != nil {
		l.mem.SetTracer(cfg.Tracer)
	}
	if cfg.GearPolicy == nil {
		algFor := func(slot int) Algorithm {
			if cfg.SlotAlgorithm != nil {
				return cfg.SlotAlgorithm(slot)
			}
			return cfg.Algorithm
		}
		// One protocol per slot, shared by all in-process replicas (the
		// compiled plans and enumerations are read-only); slots with the
		// same (algorithm, source) pair share one compilation.
		protos := make([]rsm.Protocol, cfg.Slots)
		cache := make(map[protoKey]rsm.Protocol)
		// firstUse counts each key's slots in the first pipeline window —
		// the pool-prewarm demand (× N nodes × BatchSize instances each).
		warmWin := cfg.Window
		if cfg.Slots < warmWin {
			warmWin = cfg.Slots
		}
		firstUse := make(map[protoKey]int)
		for slot := 0; slot < cfg.Slots; slot++ {
			key := protoKey{algFor(slot), slot % cfg.N}
			// A statically no-op'd slot silently discards its source's
			// commands while the run still reports agreement; only a gear
			// policy, reacting to evidence in the prefix, may assign it.
			if key.alg == NoOpSlot {
				return nil, fmt.Errorf("shiftgears: slot %d: noop is a policy-assigned gear, not a static algorithm; use a GearPolicy (Blacklist) to assign it", slot)
			}
			proto, ok := cache[key]
			if !ok {
				var err error
				proto, err = SlotProtocol(key.alg, cfg.N, cfg.T, cfg.B, key.source)
				if err != nil {
					return nil, fmt.Errorf("shiftgears: slot %d: %w", slot, err)
				}
				cache[key] = proto
			}
			protos[slot] = proto
			l.gears[slot] = key.alg
			if slot < warmWin {
				firstUse[key]++
			}
		}
		// Stock each pooled protocol with its first window's instance
		// demand: every node builds BatchSize instance replicas per slot,
		// all drawn from the key's one shared Env pool. Gear-scheduled logs
		// skip this — their protocols are resolved lazily, mid-run, so
		// there is nothing to warm at construction.
		for key, slots := range firstUse {
			np, ok := cache[key].(namedProtocol)
			if !ok {
				continue
			}
			if pw, ok := np.Protocol.(prewarmer); ok {
				if err := pw.Prewarm(slots * cfg.N * cfg.BatchSize); err != nil {
					return nil, fmt.Errorf("shiftgears: prewarm %v: %w", key.alg, err)
				}
			}
		}
		rcfg.Protocol = func(slot, source int) (rsm.Protocol, error) { return protos[slot], nil }
	}

	// One resolver serves every replica; replica 0's picks are recorded
	// as the log's gear schedule — the policy is a pure function of the
	// committed prefix, so every correct replica picks identically.
	var gr *gearResolver
	if cfg.GearPolicy != nil {
		gr = newGearResolver(cfg)
	}
	for id := 0; id < cfg.N; id++ {
		idcfg := rcfg
		if gr != nil {
			r := gr
			if o.gearResolver != nil {
				r = o.gearResolver(id)
			}
			idcfg.GearProtocol = func(slot, source int, prefix []rsm.Entry) (rsm.Protocol, error) {
				alg, proto, err := r.resolve(slot, source, prefix)
				if id == 0 {
					l.gearMu.Lock()
					l.gears[slot] = alg
					l.gearMu.Unlock()
				}
				return proto, err
			}
		}
		var ropts []rsm.ReplicaOption
		if o.apply != nil {
			id := id
			ropts = append(ropts, rsm.WithApply(func(e LogEntry) { o.apply(id, e) }))
		}
		if faulty[id] {
			ropts = append(ropts, rsm.WithByzantine(stratName, cfg.Seed))
		}
		rep, err := rsm.NewReplica(idcfg, id, ropts...)
		if err != nil {
			return nil, err
		}
		l.replicas[id] = rep
	}
	return l, nil
}

// protoKey identifies one slot-protocol compilation: every slot running
// the same algorithm under the same source shares it.
type protoKey struct {
	alg    Algorithm
	source int
}

// gearResolver resolves a gear-scheduled log's slots to protocols. One
// resolver serves all N replicas of the log, the way the static path
// shares one protocol per key: compiled protocols are read-only apart
// from core.Env's synchronized instance pool, so every replica running
// an (algorithm, source) pair uses the same compilation and draws from
// the same pool. The cache fills lazily, on the first pick of a pair by
// any replica, so construction pays nothing for gears the log never
// shifts into.
type gearResolver struct {
	policy  GearPolicy
	n, t, b int
	// compile builds a protocol on a cache miss (SlotProtocol).
	compile func(alg Algorithm, n, t, b, source int) (rsm.Protocol, error)

	mu    sync.Mutex
	cache map[protoKey]rsm.Protocol
}

func newGearResolver(cfg LogConfig) *gearResolver {
	return &gearResolver{
		policy: cfg.GearPolicy, n: cfg.N, t: cfg.T, b: cfg.B,
		compile: SlotProtocol, cache: make(map[protoKey]rsm.Protocol),
	}
}

// resolve picks the slot's gear and returns it with its protocol. The
// policy runs outside the cache lock.
func (g *gearResolver) resolve(slot, source int, prefix []rsm.Entry) (Algorithm, rsm.Protocol, error) {
	alg := g.policy.Pick(slot, source, prefix)
	proto, err := g.protocol(protoKey{alg, source})
	if err != nil {
		return alg, nil, fmt.Errorf("shiftgears: slot %d gear %v: %w", slot, alg, err)
	}
	return alg, proto, nil
}

// protocol returns the key's protocol, compiling it on first use. Replicas
// resolve concurrently under the parallel and TCP engines; a replica that
// misses while another compiles waits for that compilation rather than
// repeating it.
func (g *gearResolver) protocol(key protoKey) (rsm.Protocol, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if proto, ok := g.cache[key]; ok {
		return proto, nil
	}
	proto, err := g.compile(key.alg, g.n, g.t, g.b, key.source)
	if err != nil {
		return nil, err
	}
	g.cache[key] = proto
	return proto, nil
}

// Submit queues a command at the given replica — the replica that
// "received the client request". It rides in the next slot that replica
// sources with a free batch position.
func (l *ReplicatedLog) Submit(receiver int, cmd Value) error {
	if receiver < 0 || receiver >= l.cfg.N {
		return fmt.Errorf("shiftgears: receiver %d out of range [0, %d)", receiver, l.cfg.N)
	}
	return l.replicas[receiver].Submit(cmd)
}

// Replica exposes one replica's engine (its Committed channel, Snapshot,
// and Pending count).
func (l *ReplicatedLog) Replica(id int) *rsm.Replica { return l.replicas[id] }

// Run executes the full pipeline over the configured fabric — the
// in-process router, the chaos network, or a loopback TCP mesh, all
// through the same drive loop — and reports the committed logs. It can
// run once.
func (l *ReplicatedLog) Run() (*LogResult, error) {
	if l.ran {
		return nil, fmt.Errorf("shiftgears: log already ran")
	}
	if len(l.faulty) == l.cfg.N {
		return nil, fmt.Errorf("shiftgears: no correct replicas: all %d replicas are configured faulty", l.cfg.N)
	}
	l.ran = true

	var stats *sim.Stats
	var err error
	switch l.cfg.Fabric {
	case "tcp":
		stats, err = rsm.RunTCP(l.replicas)
	case "mem":
		stats, err = rsm.Run(l.mem, l.replicas, l.cfg.Parallel)
	default:
		stats, err = rsm.RunSim(l.replicas, l.cfg.Parallel)
	}
	if err != nil {
		return nil, err
	}

	res := &LogResult{
		Agreement:       true,
		ChaosVictims:    append([]int(nil), l.affected...),
		Ticks:           stats.Rounds,
		MaxMessageBytes: stats.MaxPayload,
		TotalBytes:      stats.Bytes,
		Messages:        stats.Messages,
	}
	// SequentialTicks is the window-1 schedule: slots back to back. Every
	// slot is resolved once the run completes, so SlotRounds is exact for
	// geared logs too.
	seq := 0
	for slot := 0; slot < l.cfg.Slots; slot++ {
		seq += l.replicas[0].SlotRounds(slot)
	}
	res.SequentialTicks = seq
	l.gearMu.Lock()
	res.Gears = append([]Algorithm(nil), l.gears...)
	l.gearMu.Unlock()

	affected := make(map[int]bool, len(l.affected))
	for _, v := range l.affected {
		affected[v] = true
	}
	var ref []LogEntry
	for id, rep := range l.replicas {
		// Byzantine replicas run shadow state; chaos victims run honest
		// state over a network degraded beyond the fault model's
		// guarantee. Neither's log is checked.
		if l.faulty[id] || affected[id] {
			continue
		}
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("shiftgears: replica %d: %w", id, err)
		}
		res.Pending += rep.Pending()
		// Each correct replica holds the latency samples of the commands
		// it sourced; fixed buckets make the merge a vector addition.
		l.lat.Merge(rep.Latency())
		entries := rep.Entries()
		if ref == nil {
			ref = entries
			continue
		}
		if !equalLogs(ref, entries) {
			res.Agreement = false
		}
	}
	res.Entries = ref
	res.Latency = l.lat.Summarize()
	for _, e := range ref {
		res.Committed += len(e.Commands)
	}
	if len(ref) != l.cfg.Slots {
		res.Agreement = false
	}
	return res, nil
}

func equalLogs(a, b []LogEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Slot != b[i].Slot || a[i].Source != b[i].Source || len(a[i].Batch) != len(b[i].Batch) {
			return false
		}
		for p := range a[i].Batch {
			if a[i].Batch[p] != b[i].Batch[p] {
				return false
			}
		}
	}
	return true
}
