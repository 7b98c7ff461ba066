package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sync"

	"shiftgears"
	"shiftgears/internal/fabric"
	"shiftgears/internal/obs"
	"shiftgears/internal/rsm"
	"shiftgears/internal/sim"
	"shiftgears/internal/transport"
)

// logRun is one log of a log workload, run through the public API.
type logRun struct {
	setupNs, wallNs int64
	res             *shiftgears.LogResult
	cl              *client
	mem             memCounters
	retained        int64 // live heap the log holds after its run
}

// config is the workload's configuration for the log seeded by seed.
func (w *logWorkload) config(seed uint64) shiftgears.LogConfig {
	cfg := w.cfg
	cfg.Seed = int64(seed >> 1)
	return cfg
}

// runPublicLog builds, fills and runs one log through NewReplicatedLog,
// Submit and Run. Set-up is construction (protocol compile and pool
// pre-warm included) plus the initial queue fill; the timed phase is Run.
// Given latency histograms to record into, it also measures the run's
// allocations and GC CPU and the heap the log retains.
func runPublicLog(w *logWorkload, seed uint64, tracer shiftgears.Tracer, wall *wallHist, ticks *tickHist) (*logRun, error) {
	cfg := w.config(seed)
	cfg.Tracer = tracer
	cl := newClient(cfg.N, cfg.Faulty, w.outstanding, seed)
	cl.wall, cl.ticks = wall, ticks
	measure := wall != nil
	runtime.GC()
	t0 := now()
	l, err := shiftgears.NewReplicatedLog(cfg, shiftgears.WithLogApply(cl.apply))
	if err != nil {
		return nil, err
	}
	cl.fill(publicTarget{l})
	r := &logRun{setupNs: now() - t0, cl: cl}
	var m0 memCounters
	if measure {
		m0 = readMem()
	}
	start := now()
	res, err := l.Run()
	r.wallNs = now() - start
	if measure {
		r.mem = readMem().sub(m0)
	}
	if err != nil {
		return nil, err
	}
	r.res = res
	if !res.Agreement {
		cl.violate("correct replicas committed different logs")
	}
	for id := 0; id < cfg.N; id++ {
		if !cl.faulty[id] {
			if err := l.Replica(id).Err(); err != nil {
				cl.violate("replica %d: %v", id, err)
			}
		}
	}
	cl.check(res.Entries, cfg.Slots, res.Latency)
	// Drop the client's hold on the log: the caller's next log must start
	// from the same live heap, or the GC would pace it differently.
	cl.t = nil
	if measure {
		runtime.GC()
		with := heapLive()
		runtime.KeepAlive(l)
		runtime.GC()
		r.retained = with - heapLive()
	}
	return r, nil
}

// rsmTarget is the client surface of a bench-composed replica set.
type rsmTarget []*rsm.Replica

func (t rsmTarget) submit(id int, cmd shiftgears.Value) error { return t[id].Submit(cmd) }
func (t rsmTarget) tick(id int) int                           { return t[id].Mux().Ticks() }
func (t rsmTarget) pending(id int) int                        { return t[id].Pending() }

// composedRun is one log run through the traced composition.
type composedRun struct {
	wallNs    int64
	res       *shiftgears.LogResult
	cl        *client
	p         *probes
	tr        *benchTracer
	profile   []byte
	batchSize int
	mem       memCounters
}

// runComposedLog runs the same log as runPublicLog, composed from
// rsm.NewReplica and rsm.Run the way NewReplicatedLog and Run compose
// them, with timing decorators around the calls into each layer: the
// fabric's Exchange, every slot protocol and instance replica built from
// shiftgears.SlotProtocol, the gear policy's Pick, and a bench tracer
// timestamping ticks and commits. The CPU profile covers the drive loop.
func runComposedLog(w *logWorkload, seed uint64) (*composedRun, error) {
	cfg := w.config(seed)
	n := cfg.N
	cl := newClient(n, cfg.Faulty, w.outstanding, seed)
	correct := make([]bool, n)
	ref := -1
	for id := range correct {
		correct[id] = !cl.faulty[id]
		if correct[id] && ref < 0 {
			ref = id
		}
	}
	p := &probes{}
	tr := newBenchTracer(ref, cfg.Slots)
	runtime.GC()

	rcfg := rsm.Config{
		N: n, Slots: cfg.Slots, Window: cfg.Window, BatchSize: cfg.BatchSize,
		Workers: cfg.Workers, Tracer: tr,
	}
	if rcfg.Workers == 0 && cfg.Fabric == "tcp" {
		rcfg.Workers = min(max(runtime.GOMAXPROCS(0)/n, 1), cfg.Window)
	}
	type protoKey struct {
		alg    shiftgears.Algorithm
		source int
	}
	gears := make([]shiftgears.Algorithm, cfg.Slots)
	var gearMu sync.Mutex
	if cfg.GearPolicy == nil {
		protos := make([]rsm.Protocol, cfg.Slots)
		cache := make(map[protoKey]*timedProtocol)
		firstUse := make(map[protoKey]int)
		warmWin := min(cfg.Window, cfg.Slots)
		for slot := 0; slot < cfg.Slots; slot++ {
			key := protoKey{cfg.Algorithm, slot % n}
			proto, ok := cache[key]
			if !ok {
				var err error
				if proto, err = p.slotProtocol(key.alg, n, cfg.T, cfg.B, key.source, correct); err != nil {
					return nil, err
				}
				cache[key] = proto
			}
			protos[slot] = proto
			gears[slot] = key.alg
			if slot < warmWin {
				firstUse[key]++
			}
		}
		for key, slots := range firstUse {
			if err := cache[key].Prewarm(slots * n * cfg.BatchSize); err != nil {
				return nil, err
			}
		}
		rcfg.Protocol = func(slot, source int) (rsm.Protocol, error) { return protos[slot], nil }
	}
	policy := timedPolicy{inner: cfg.GearPolicy, p: p}
	gearProtocol := func(id int) func(slot, source int, prefix []rsm.Entry) (rsm.Protocol, error) {
		cache := make(map[protoKey]*timedProtocol)
		return func(slot, source int, prefix []rsm.Entry) (rsm.Protocol, error) {
			alg := policy.Pick(slot, source, prefix)
			if id == 0 {
				gearMu.Lock()
				gears[slot] = alg
				gearMu.Unlock()
			}
			key := protoKey{alg, source}
			proto, ok := cache[key]
			if !ok {
				var err error
				if proto, err = p.slotProtocol(alg, n, cfg.T, cfg.B, source, correct); err != nil {
					return nil, err
				}
				cache[key] = proto
			}
			return proto, nil
		}
	}
	strategy := cfg.Strategy
	if strategy == "" {
		strategy = "splitbrain"
	}
	replicas := make([]*rsm.Replica, n)
	for id := range replicas {
		idcfg := rcfg
		if cfg.GearPolicy != nil {
			idcfg.GearProtocol = gearProtocol(id)
		}
		ropts := []rsm.ReplicaOption{rsm.WithApply(func(e rsm.Entry) { cl.apply(id, e) })}
		if !correct[id] {
			ropts = append(ropts, rsm.WithByzantine(strategy, cfg.Seed))
		}
		rep, err := rsm.NewReplica(idcfg, id, ropts...)
		if err != nil {
			return nil, err
		}
		replicas[id] = rep
	}
	cl.fill(rsmTarget(replicas))
	cr := &composedRun{cl: cl, p: p, tr: tr, batchSize: cfg.BatchSize}

	m0 := readMem()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	start := now()
	p.running.Store(true)
	var f fabric.Fabric
	var err error
	if cfg.Fabric == "tcp" {
		f, err = transport.NewMesh(n)
	} else {
		f, err = fabric.NewSim(n)
	}
	var stats *sim.Stats
	if err == nil {
		stats, err = rsm.Run(timedFabric{Fabric: f, p: p}, replicas, false)
	}
	p.running.Store(false)
	cr.wallNs = now() - start
	pprof.StopCPUProfile()
	cr.mem = readMem().sub(m0)
	cr.profile = prof.Bytes()
	if err != nil {
		return nil, err
	}

	// Assemble the result as ReplicatedLog.Run does.
	res := &shiftgears.LogResult{
		Agreement: true, Ticks: stats.Rounds, MaxMessageBytes: stats.MaxPayload,
		TotalBytes: stats.Bytes, Messages: stats.Messages,
	}
	var lat obs.Histogram
	for id, rep := range replicas {
		if !correct[id] {
			continue
		}
		if err := rep.Err(); err != nil {
			cl.violate("replica %d: %v", id, err)
		}
		res.Pending += rep.Pending()
		lat.Merge(rep.Latency())
		entries := rep.Entries()
		if res.Entries == nil {
			res.Entries = entries
		} else if !equalEntries(res.Entries, entries) {
			res.Agreement = false
		}
	}
	for _, e := range res.Entries {
		res.Committed += len(e.Commands)
	}
	res.Latency = lat.Summarize()
	gearMu.Lock()
	res.Gears = gears
	gearMu.Unlock()
	cr.res = res
	if !res.Agreement {
		cl.violate("correct replicas committed different logs")
	}
	cl.check(res.Entries, cfg.Slots, res.Latency)
	cl.t = nil
	return cr, nil
}

// equalEntries compares two committed logs slot by slot.
func equalEntries(a, b []shiftgears.LogEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Slot != b[i].Slot || a[i].Source != b[i].Source || len(a[i].Batch) != len(b[i].Batch) {
			return false
		}
		for k := range a[i].Batch {
			if a[i].Batch[k] != b[i].Batch[k] {
				return false
			}
		}
	}
	return true
}

// equivalent reports the first difference between the public-API and the
// composed run of one log, or "".
func equivalent(a, b *shiftgears.LogResult) string {
	switch {
	case !equalEntries(a.Entries, b.Entries):
		return "committed entries differ"
	case a.Ticks != b.Ticks:
		return fmt.Sprintf("ticks %d vs %d", a.Ticks, b.Ticks)
	case a.Messages != b.Messages:
		return fmt.Sprintf("messages %d vs %d", a.Messages, b.Messages)
	case a.TotalBytes != b.TotalBytes:
		return fmt.Sprintf("bytes %d vs %d", a.TotalBytes, b.TotalBytes)
	case a.MaxMessageBytes != b.MaxMessageBytes:
		return fmt.Sprintf("max message bytes %d vs %d", a.MaxMessageBytes, b.MaxMessageBytes)
	case shiftgears.GearRuns(a.Gears) != shiftgears.GearRuns(b.Gears):
		return fmt.Sprintf("gear schedule %s vs %s", shiftgears.GearRuns(a.Gears), shiftgears.GearRuns(b.Gears))
	case a.Committed != b.Committed || a.Pending != b.Pending:
		return fmt.Sprintf("committed/pending %d/%d vs %d/%d", a.Committed, a.Pending, b.Committed, b.Pending)
	case a.Latency != b.Latency:
		return fmt.Sprintf("latency %v vs %v", a.Latency, b.Latency)
	}
	return ""
}

// sinkStack is the flight recorder's full sink stack as a deployment
// installs it: ring, counting metrics and a JSONL stream.
func sinkStack() (shiftgears.Tracer, *obs.Ring) {
	ring := obs.NewRing(0)
	return obs.Tee(ring, obs.NewMetrics(), obs.NewJSONL(io.Discard)), ring
}
