package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"

	"shiftgears"
	"shiftgears/internal/adversary"
	"shiftgears/internal/core"
	"shiftgears/internal/sim"
	"shiftgears/internal/trace"
)

// warmups is the number of set-ups (validation plus one untimed
// agreement) a single-shot run measures before its timed phase.
const warmups = 51

// config is the agreement seeded by seed: its adversary seed and the
// source's one-byte value both derive from it.
func (w *singleWorkload) config(seed uint64) shiftgears.Config {
	cfg := w.cfg
	cfg.Seed = int64(seed >> 1)
	cfg.SourceValue = shiftgears.Value(1 + mix(seed, 1)%255)
	return cfg
}

// checkAgreement records an agreement that violates Agreement or
// Validity.
func checkAgreement(o *outcome, i int, res *shiftgears.Result) bool {
	if res.Agreement && res.Validity {
		return true
	}
	o.problem("agreement %d: agreement=%t validity=%t", i, res.Agreement, res.Validity)
	return false
}

// measureSingle is the end-to-end run of the single-shot workload: a
// closed loop of one over shiftgears.Run, tracing off.
func measureSingle(w *singleWorkload, seed uint64, seconds float64) (*outcome, error) {
	o := &outcome{}
	var setup []float64
	for k := 0; k < warmups; k++ {
		runtime.GC()
		cfg := w.config(mix(seed, uint64(1<<32+k)))
		t0 := now()
		if err := shiftgears.Validate(cfg); err != nil {
			return nil, err
		}
		res, err := shiftgears.Run(cfg)
		if err != nil {
			return nil, err
		}
		setup = append(setup, float64(now()-t0)/1e9)
		checkAgreement(o, -1-k, res)
	}

	var rates, p50s, p99s []float64
	lat := &wallHist{}
	var ops, rounds, wire int
	var mem memCounters
	var last *shiftgears.Result
	err := loop(seconds, func(b int) error {
		m0 := readMem()
		var wall int64
		for k := 0; k < w.batch; k++ {
			i := b*w.batch + k
			cfg := w.config(mix(seed, uint64(i)))
			t0 := now()
			res, err := shiftgears.Run(cfg)
			d := now() - t0
			if err != nil {
				return fmt.Errorf("agreement %d: %w", i, err)
			}
			wall += d
			lat.add(float64(d))
			if lat.total == uint64(w.chunk) {
				p50s = append(p50s, lat.quantile(0.50)/1e6)
				p99s = append(p99s, lat.quantile(0.99)/1e6)
				*lat = wallHist{}
			}
			o.attempted++
			if !checkAgreement(o, i, res) {
				o.failed++
			}
			ops++
			rounds += res.Rounds
			wire += res.TotalBytes
			last = res
		}
		mem.add(readMem().sub(m0))
		rates = append(rates, float64(w.batch)/(float64(wall)/1e9))
		return nil
	})
	if err != nil {
		return nil, err
	}
	runtime.GC()
	with := heapLive()
	runtime.KeepAlive(last)
	runtime.GC()
	retained := float64(with-heapLive()) / 1e6

	if len(p50s) == 0 { // a run too short for one chunk
		p50s = append(p50s, lat.quantile(0.50)/1e6)
		p99s = append(p99s, lat.quantile(0.99)/1e6)
	}
	perOp := func(x float64) float64 { return x / float64(ops) }
	n := fmt.Sprintf("(%d agreements)", ops)
	chunks := func(q string) string {
		return fmt.Sprintf("%s over %d chunks of %d agreements of each chunk's percentile", q, len(p50s), w.chunk)
	}
	r := &o.rep
	r.add("ops_per_s", slowRate(rates), "ops/s", fmt.Sprintf("10th percentile of %d batches of %d agreements", len(rates), w.batch))
	r.add("op_p50_ms", slowTime(p50s), "ms", chunks("90th percentile"))
	r.add("op_p99_ms", median(p99s), "ms", chunks("median"))
	r.add("op_p50_ticks", float64(rounds)/float64(ops), "ticks", n+" every agreement runs the same rounds")
	r.add("op_p99_ticks", float64(rounds)/float64(ops), "ticks", n)
	r.add("ops_per_tick", float64(ops)/float64(rounds), "ops/tick", fmt.Sprintf("(%d rounds)", rounds))
	r.add("wire_bytes_per_op", perOp(float64(wire)), "bytes/op", n)
	r.add("allocs_per_op", perOp(float64(mem.mallocs)), "allocs/op", n)
	r.add("alloc_bytes_per_op", perOp(float64(mem.bytes)), "bytes/op", n)
	r.add("retained_heap_mb", retained, "MB", "the last Result, after a GC")
	r.add("setup_s", median(setup), "s", fmt.Sprintf("median over %d set-ups", len(setup)))
	r.add("ok_frac", 1-float64(o.failed)/float64(o.attempted), "fraction", fmt.Sprintf("(%d attempted)", o.attempted))
	r.add("failed_frac", float64(o.failed)/float64(o.attempted), "fraction", fmt.Sprintf("(%d attempted)", o.attempted))
	r.add("runtime.gc_cpu_frac", mem.gcFrac(), "fraction", "of Go CPU in the timed phases")
	return o, nil
}

// coreAlgorithm maps the public single-shot algorithms that run on core
// plans to their core names.
var coreAlgorithm = map[shiftgears.Algorithm]core.Algorithm{
	shiftgears.Exponential: core.Exponential,
	shiftgears.AlgorithmA:  core.AlgorithmA,
	shiftgears.AlgorithmB:  core.AlgorithmB,
	shiftgears.AlgorithmC:  core.AlgorithmC,
	shiftgears.Hybrid:      core.Hybrid,
}

// composedSingle is one agreement run through the traced composition.
type composedSingle struct {
	decisions      []shiftgears.Value
	decided        []bool
	agreement      bool
	validity       bool
	stats          *sim.Stats
	resolveOps     int
	discoveryReads int
	peakTree       int
	setupNs, runNs int64
	start          int64
	rounds         []int64 // round-end timestamps
}

// runComposedSingle runs the agreement shiftgears.Run runs, composed from
// core.NewEnv and sim.NewNetwork(...).Run the way Run composes them,
// with every core replica and every processor call timed.
func runComposedSingle(cfg shiftgears.Config, p *probes) (*composedSingle, error) {
	alg, ok := coreAlgorithm[cfg.Algorithm]
	if !ok {
		return nil, fmt.Errorf("algorithm %v does not run on a core plan", cfg.Algorithm)
	}
	cs := &composedSingle{}
	t0 := now()
	plan, err := core.NewPlan(alg, cfg.N, cfg.T, cfg.B, cfg.Source)
	if err != nil {
		return nil, err
	}
	env, err := core.NewEnv(plan)
	if err != nil {
		return nil, err
	}
	faulty := make([]bool, cfg.N)
	for _, f := range cfg.Faulty {
		faulty[f] = true
	}
	strategy := cfg.Strategy
	if strategy == "" {
		strategy = "splitbrain"
	}
	reps := make([]*core.Replica, cfg.N)
	procs := make([]sim.Processor, cfg.N)
	for id := range reps {
		rep, err := core.NewReplica(env, id, cfg.SourceValue, trace.NewLog(id))
		if err != nil {
			return nil, err
		}
		reps[id] = rep
		var proc sim.Processor = timedCore{Replica: rep, p: p}
		if faulty[id] {
			strat, err := adversary.New(strategy, plan.TotalRounds)
			if err != nil {
				return nil, err
			}
			proc = adversary.NewProcessor(proc, strat, cfg.Seed, cfg.N)
		}
		procs[id] = timedProc{Processor: proc, p: p}
	}
	nw, err := sim.NewNetwork(procs, sim.WithRoundHook(func(int) { cs.rounds = append(cs.rounds, now()) }))
	if err != nil {
		return nil, err
	}
	start := now()
	cs.setupNs, cs.start = start-t0, start
	stats, err := nw.Run(plan.TotalRounds)
	cs.runNs = now() - start
	if err != nil {
		return nil, err
	}
	cs.stats = stats

	// Assemble the outcome as shiftgears.Run does.
	cs.agreement = true
	var common shiftgears.Value
	haveCommon := false
	for id, rep := range reps {
		v, ok := rep.Decided()
		cs.decisions = append(cs.decisions, v)
		cs.decided = append(cs.decided, ok)
		if faulty[id] {
			continue
		}
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("replica %d: %w", id, err)
		}
		c := rep.Counters()
		cs.resolveOps += c.ResolveOps
		cs.discoveryReads += c.DiscoveryReads
		cs.peakTree = max(cs.peakTree, c.PeakTreeNodes)
		switch {
		case !ok:
			cs.agreement = false
		case !haveCommon:
			common, haveCommon = v, true
		case v != common:
			cs.agreement = false
		}
	}
	cs.agreement = cs.agreement && haveCommon
	cs.validity = faulty[cfg.Source] || (cs.agreement && common == cfg.SourceValue)
	return cs, nil
}

// equivalentSingle reports the first difference between the public Run
// and the composed run of one agreement, or "".
func equivalentSingle(a *shiftgears.Result, b *composedSingle) string {
	for i, pr := range a.Processors {
		if pr.Decided != b.decided[i] || pr.Decision != b.decisions[i] {
			return fmt.Sprintf("processor %d decision differs", i)
		}
	}
	switch {
	case a.Rounds != b.stats.Rounds:
		return fmt.Sprintf("rounds %d vs %d", a.Rounds, b.stats.Rounds)
	case a.TotalBytes != b.stats.Bytes || a.Messages != b.stats.Messages:
		return fmt.Sprintf("bytes/messages %d/%d vs %d/%d", a.TotalBytes, a.Messages, b.stats.Bytes, b.stats.Messages)
	case a.ResolveOps != b.resolveOps:
		return fmt.Sprintf("resolve ops %d vs %d", a.ResolveOps, b.resolveOps)
	case a.DiscoveryReads != b.discoveryReads || a.PeakTreeNodes != b.peakTree:
		return "discovery reads or peak tree nodes differ"
	case a.Agreement != b.agreement || a.Validity != b.validity:
		return "agreement or validity differs"
	}
	return ""
}

// traceSingle is the traced run of the single-shot workload: every
// agreement runs through shiftgears.Run and then through the decorated
// composition, which must reproduce it exactly.
func traceSingle(w *singleWorkload, seed uint64, seconds float64) (*outcome, error) {
	o := &outcome{}
	cal := calibrate()
	cpu := cpuShares{}
	var untraced, traced, roundNs []float64
	var ops, rounds, frames, wire int64
	var setupNs, runNs, procNs, spans int64
	var resolveOps, discoveryReads, peakTree int64
	var prepare, deliver, prepareCalls int64
	var mem memCounters
	err := loop(seconds, func(b int) error {
		var pubWall, trWall int64
		p := &probes{}
		var prof bytes.Buffer
		var results []*shiftgears.Result
		var composed []*composedSingle
		public := func() error {
			for k := 0; k < w.batch; k++ {
				cfg := w.config(mix(seed, uint64(b*w.batch+k)))
				t0 := now()
				res, err := shiftgears.Run(cfg)
				pubWall += now() - t0
				if err != nil {
					return err
				}
				results = append(results, res)
			}
			return nil
		}
		tracedBatch := func() error {
			m0 := readMem()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
			for k := 0; k < w.batch; k++ {
				cfg := w.config(mix(seed, uint64(b*w.batch+k)))
				t0 := now()
				cs, err := runComposedSingle(cfg, p)
				trWall += now() - t0
				if err != nil {
					pprof.StopCPUProfile()
					return err
				}
				composed = append(composed, cs)
			}
			pprof.StopCPUProfile()
			mem.add(readMem().sub(m0))
			return cpu.addProfile(prof.Bytes())
		}
		// Alternate which batch runs first, so order effects cancel out of
		// the tracing overhead.
		first, second := public, tracedBatch
		if b%2 == 1 {
			first, second = tracedBatch, public
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		for k, res := range results {
			i := b*w.batch + k
			cs := composed[k]
			o.attempted++
			ok := checkAgreement(o, i, res)
			if d := equivalentSingle(res, cs); d != "" {
				o.problem("agreement %d: traced composition differs from the public API: %s", i, d)
				ok = false
			}
			if !ok {
				o.failed++
			}
			ops++
			rounds += int64(cs.stats.Rounds)
			frames += int64(cs.stats.Messages)
			wire += int64(cs.stats.Bytes)
			setupNs += cs.setupNs
			runNs += cs.runNs
			resolveOps += int64(cs.resolveOps)
			discoveryReads += int64(cs.discoveryReads)
			peakTree = max(peakTree, int64(cs.peakTree))
			prev := cs.start
			for _, t := range cs.rounds {
				roundNs = append(roundNs, float64(t-prev))
				prev = t
			}
		}
		procNs += p.procNs.Load()
		prepare += p.prepareNs.Load()
		deliver += p.deliverNs.Load()
		prepareCalls += p.prepareCalls.Load()
		// Every processor call is two spans: the outer processor and the
		// inner core replica.
		spans += 2 * (p.prepareCalls.Load() + p.deliverCalls.Load())
		untraced = append(untraced, float64(w.batch)/float64(pubWall))
		traced = append(traced, float64(w.batch)/float64(trWall))
		return nil
	})
	if err != nil {
		return nil, err
	}
	overhead := median(untraced)/median(traced) - 1
	fmt.Printf("tracing overhead: traced composition runs at %.4g agreements/s vs %.4g untraced (%+.1f%%)\n",
		median(traced)*1e9, median(untraced)*1e9, overhead*100)
	unattributed := float64(spans) * cal.spanNs
	driveSelf := float64(runNs-procNs) - unattributed/2
	perRound := func(x float64) float64 { return x / float64(rounds) }
	fmt.Printf("round split, ns/round: consensus %.0f + adversary %.0f + sim drive self %.0f + unattributed %.0f = %.0f measured\n",
		perRound(float64(prepare+deliver)), perRound(float64(procNs-prepare-deliver)-unattributed/2),
		perRound(driveSelf), perRound(unattributed), perRound(float64(runNs)))
	fmt.Printf("instrumentation: %.1f ns per timed span\n", cal.spanNs)
	// The split closes by construction; what can fail is the nesting of the
	// measured spans (the instrumentation estimate is only reported).
	if prepare+deliver > procNs || procNs > runNs {
		o.problem("round accounting does not close: core %d ns, processor calls %d ns, run %d ns", prepare+deliver, procNs, runNs)
	}

	n := fmt.Sprintf("(%d agreements, %d rounds)", ops, rounds)
	r := &o.rep
	na := "n/a: log workloads only"
	for _, m := range []struct{ name, unit string }{
		{"shiftgears.gear_pick_calls", "calls/log"}, {"shiftgears.gear_pick_ns", "ns/call"},
		{"shiftgears.gear_prefix_len", "entries"}, {"shiftgears.slot_protocol_calls", "calls/log"},
		{"shiftgears.slot_protocol_ns", "ns/call"}, {"shiftgears.gear_ns_per_tick", "ns"},
		{"rsm.self_ns_per_tick", "ns"}, {"rsm.batch_fill_frac", "fraction"}, {"rsm.slot_ns_growth", "ratio"},
		{"fabric.exchange_ns_per_tick", "ns"},
		{"obs.sinks_overhead_frac", "fraction"}, {"obs.emit_ns_per_event", "ns/event"}, {"obs.events_per_tick", "events/tick"},
	} {
		r.add(m.name, 0, m.unit, na)
	}
	r.add("core.prepare_ns_per_tick", perRound(float64(prepare)), "ns", n+" tick = round")
	r.add("core.deliver_ns_per_tick", perRound(float64(deliver)), "ns", n)
	r.add("core.instance_rounds_per_tick", perRound(float64(prepareCalls)), "rounds/tick", n)
	r.add("core.resolve_ops_per_op", float64(resolveOps)/float64(ops), "ops/op", n)
	r.add("core.discovery_reads_per_op", float64(discoveryReads)/float64(ops), "reads/op", n)
	r.add("core.peak_tree_nodes", float64(peakTree), "nodes", "max over correct replicas")
	r.add("fabric.frames_per_tick", perRound(float64(frames)), "frames/tick", n)
	r.add("fabric.bytes_per_tick", perRound(float64(wire)), "bytes/tick", n)
	r.add("fabric.tick_ns_mean", perRound(float64(runNs)), "ns", n)
	r.add("fabric.tick_unattributed_ns", perRound(unattributed), "ns", "instrumentation estimate per round")
	r.add("fabric.tick_ns_p50", quantile(roundNs, 0.50), "ns", fmt.Sprintf("(%d rounds)", len(roundNs)))
	r.add("fabric.tick_ns_p99", quantile(roundNs, 0.99), "ns", fmt.Sprintf("(%d rounds)", len(roundNs)))
	r.add("sim.setup_ns_per_op", float64(setupNs)/float64(ops), "ns/op", n)
	r.add("sim.drive_self_ns_per_op", driveSelf/float64(ops), "ns/op", n)
	r.add("runtime.gc_cpu_frac", mem.gcFrac(), "fraction", "of Go CPU in the traced agreements")
	r.add("bench.trace_overhead_frac", overhead, "fraction", "untraced/traced ops_per_s - 1")
	cpu.report(r)
	return o, nil
}
