package main

import (
	"fmt"

	"shiftgears"
	"shiftgears/internal/obs"
	"shiftgears/internal/rsm"
)

// minSamples is the fewest logs (or single-shot batches) a run measures,
// however long they take.
const minSamples = 3

// loop runs iteration i = 0, 1, ... until the run's time is spent: it
// stops before an iteration that would end more than half an iteration
// past the deadline, after at least minSamples iterations.
func loop(seconds float64, body func(i int) error) error {
	deadline := now() + int64(seconds*1e9)
	for i := 0; ; i++ {
		t0 := now()
		if err := body(i); err != nil {
			return err
		}
		if i+1 >= minSamples && now()+(now()-t0)/2 > deadline {
			return nil
		}
	}
}

// measureLogs is the end-to-end run of a log workload: logs back to back
// through the public API, tracing off.
func measureLogs(w *logWorkload, seed uint64, seconds float64) (*outcome, error) {
	o := &outcome{}
	var setup, rates, retained, p50s, p99s []float64
	wall, ticksHist := &wallHist{}, &tickHist{}
	var committed, ticks, wire, unserved int
	var mem memCounters
	err := loop(seconds, func(i int) error {
		*wall = wallHist{}
		r, err := runPublicLog(w, mix(seed, uint64(i)), nil, wall, ticksHist)
		if err != nil {
			return fmt.Errorf("log %d: %w", i, err)
		}
		attempted := r.cl.taken
		o.attempted += attempted
		if len(r.cl.violations) > 0 {
			o.failed += attempted
			for _, v := range r.cl.violations {
				o.problem("log %d: %s", i, v)
			}
		}
		setup = append(setup, float64(r.setupNs)/1e9)
		rates = append(rates, float64(r.cl.committed)/(float64(r.wallNs)/1e9))
		retained = append(retained, float64(r.retained)/1e6)
		p50s = append(p50s, wall.quantile(0.50)/1e6)
		p99s = append(p99s, wall.quantile(0.99)/1e6)
		committed += r.cl.committed
		ticks += r.res.Ticks
		wire += r.res.TotalBytes
		unserved += r.cl.unserved()
		mem.add(r.mem)
		return nil
	})
	if err != nil {
		return nil, err
	}
	logs := len(rates)
	perOp := func(x float64) float64 { return x / float64(committed) }
	ops := fmt.Sprintf("(%d logs, %d ops)", logs, committed)
	lat := fmt.Sprintf("(%d ops over %d logs)", committed, logs)
	perLog := func(q string) string {
		return fmt.Sprintf("%s over %d logs of each log's percentile (%d ops)", q, logs, committed)
	}
	r := &o.rep
	r.add("ops_per_s", slowRate(rates), "ops/s", "10th percentile of per-log rates "+ops)
	r.add("op_p50_ms", slowTime(p50s), "ms", perLog("90th percentile"))
	// A log's p99 is a tail already; a decile of it across logs would be
	// set by the few logs a GC cycle or a host stall hits hardest.
	r.add("op_p99_ms", median(p99s), "ms", perLog("median"))
	r.add("op_p50_ticks", ticksHist.quantile(0.50), "ticks", lat)
	r.add("op_p99_ticks", ticksHist.quantile(0.99), "ticks", lat)
	r.add("ops_per_tick", float64(committed)/float64(ticks), "ops/tick", fmt.Sprintf("(%d ops, %d ticks)", committed, ticks))
	r.add("wire_bytes_per_op", perOp(float64(wire)), "bytes/op", ops)
	r.add("allocs_per_op", perOp(float64(mem.mallocs)), "allocs/op", ops)
	r.add("alloc_bytes_per_op", perOp(float64(mem.bytes)), "bytes/op", ops)
	r.add("retained_heap_mb", median(retained), "MB", fmt.Sprintf("median over %d logs", logs))
	r.add("setup_s", median(setup), "s", fmt.Sprintf("median over %d set-ups", logs))
	r.add("ok_frac", 1-float64(o.failed)/float64(o.attempted), "fraction", fmt.Sprintf("(%d attempted)", o.attempted))
	r.add("failed_frac", float64(o.failed)/float64(o.attempted), "fraction", fmt.Sprintf("(%d attempted)", o.attempted))
	r.add("unserved", float64(unserved), "cmds", "queued when their replica's last slot started")
	r.add("runtime.gc_cpu_frac", mem.gcFrac(), "fraction", "of Go CPU in the timed phases")
	return o, nil
}

// calibration is the measured cost of the traced run's own
// instrumentation: one timed decorator call around a no-op, and one
// event delivered to the bench tracer.
type calibration struct{ spanNs, eventNs float64 }

type nopInstance struct{}

func (nopInstance) ID() int                           { return 0 }
func (nopInstance) PrepareRound(int) [][]byte         { return nil }
func (nopInstance) DeliverRound(int, [][]byte)        {}
func (nopInstance) Decided() (shiftgears.Value, bool) { return 0, false }
func (nopInstance) Err() error                        { return nil }

// calibrate measures the instrumentation costs, best of five rounds.
func calibrate() calibration {
	const reps = 100000
	c := calibration{spanNs: 1e9, eventNs: 1e9}
	var bare rsm.InstanceReplica = nopInstance{}
	var timed rsm.InstanceReplica = &timedInstance{owner: &timedProtocol{p: &probes{}}, inner: nopInstance{}}
	var tr obs.Tracer = newBenchTracer(0, 1)
	ev := obs.At(obs.FrameBatch, 1)
	for round := 0; round < 5; round++ {
		t0 := now()
		for i := 0; i < reps; i++ {
			bare.PrepareRound(i)
		}
		t1 := now()
		for i := 0; i < reps; i++ {
			timed.PrepareRound(i)
		}
		t2 := now()
		for i := 0; i < reps; i++ {
			tr.Emit(ev)
		}
		t3 := now()
		c.spanNs = min(c.spanNs, float64((t2-t1)-(t1-t0))/reps)
		c.eventNs = min(c.eventNs, float64(t3-t2)/reps)
	}
	c.spanNs = max(c.spanNs, 0)
	return c
}

// layers accumulates the traced run's per-layer figures over its logs.
type layers struct {
	logs, ops, ticks                            int64
	tickTotal, prepare, deliver, exchange, gear int64
	prepareCalls                                int64
	picks, pickNs, prefix, protoCalls, protoNs  int64
	resolveOps, discoveryReads, peakTree        int64
	unattributed                                float64
	frames, bytes                               int64
	sourced, batchPositions                     int64
	tickNs, growth                              []float64
	cpu                                         cpuShares
	mem                                         memCounters
}

// addLog folds one composed log run into the totals.
func (ly *layers) addLog(cr *composedRun, cal calibration) error {
	p, tr := cr.p, cr.tr
	ts := tr.tickStarts
	if len(ts) == 0 || tr.lastCommit < ts[len(ts)-1] {
		return fmt.Errorf("trace has no complete tick")
	}
	slots := len(tr.commits)
	for slot, t := range tr.commits {
		if t == 0 {
			return fmt.Errorf("slot %d has no commit timestamp", slot)
		}
	}
	for k, t := range ts {
		end := tr.lastCommit
		if k+1 < len(ts) {
			end = ts[k+1]
		}
		ly.tickNs = append(ly.tickNs, float64(end-t))
	}
	// Both quarters are timed commit to commit, so the pipeline's fill
	// before the first commit counts in neither.
	if q := slots / 4; q > 0 {
		first := float64(tr.commits[q]-tr.commits[0]) / float64(q)
		last := float64(tr.commits[slots-1]-tr.commits[slots-1-q]) / float64(q)
		ly.growth = append(ly.growth, last/first)
	}
	ly.logs++
	ly.ops += int64(cr.cl.committed)
	ly.ticks += int64(len(ts))
	ly.tickTotal += tr.lastCommit - ts[0]
	ly.prepare += p.prepareNs.Load()
	ly.deliver += p.deliverNs.Load()
	ly.exchange += p.exchangeNs.Load()
	ly.gear += p.pickNs.Load() + p.protoRunNs.Load()
	ly.prepareCalls += p.prepareCalls.Load()
	ly.picks += p.picks.Load()
	ly.pickNs += p.pickNs.Load()
	ly.prefix += p.prefix.Load()
	ly.protoCalls += p.protoCalls.Load()
	ly.protoNs += p.protoNs.Load()
	ly.resolveOps += p.resolveOps.Load()
	ly.discoveryReads += p.discoveryReads.Load()
	ly.peakTree = max(ly.peakTree, p.peakTree.Load())
	ly.unattributed += float64(p.spans())*cal.spanNs + float64(tr.events.Load())*cal.eventNs
	ly.frames += int64(cr.res.Messages)
	ly.bytes += int64(cr.res.TotalBytes)
	ly.sourced += int64(cr.cl.sourced)
	ly.batchPositions += int64(cr.cl.sourced * cr.batchSize)
	ly.mem.add(cr.mem)
	return ly.cpu.addProfile(cr.profile)
}

// traceLogs is the traced run of a log workload. Each log runs three
// times on the same seed — through the public API with tracing off,
// through the bench-composed, decorated replica set, and through the
// public API with the flight recorder's full sink stack installed (the
// obs layer's price) — and all three must commit identical logs.
func traceLogs(w *logWorkload, seed uint64, seconds float64) (*outcome, error) {
	o := &outcome{}
	cal := calibrate()
	ly := &layers{cpu: cpuShares{}}
	var untraced, traced, sinkFrac []float64
	var sinkNs, sinkEvents, sinkTicks int64
	err := loop(seconds, func(i int) error {
		s := mix(seed, uint64(i))
		var pub *logRun
		var cr *composedRun
		var err error
		// Alternate which of the pair runs first, so order effects cancel
		// out of the tracing overhead.
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				if pub, err = runPublicLog(w, s, nil, nil, nil); err != nil {
					return fmt.Errorf("log %d: %w", i, err)
				}
			} else if cr, err = runComposedLog(w, s); err != nil {
				return fmt.Errorf("log %d (traced): %w", i, err)
			}
		}
		attempted := pub.cl.taken
		o.attempted += attempted
		bad := append(append([]string(nil), pub.cl.violations...), cr.cl.violations...)
		if d := equivalent(pub.res, cr.res); d != "" {
			bad = append(bad, "traced composition differs from the public API: "+d)
		}
		tracer, ring := sinkStack()
		sk, err := runPublicLog(w, s, tracer, nil, nil)
		if err != nil {
			return fmt.Errorf("log %d (sinks): %w", i, err)
		}
		bad = append(bad, sk.cl.violations...)
		if d := equivalent(pub.res, sk.res); d != "" {
			bad = append(bad, "sink-stack run differs from the untraced run: "+d)
		}
		sinkFrac = append(sinkFrac, float64(sk.wallNs)/float64(pub.wallNs)-1)
		sinkNs += sk.wallNs - pub.wallNs
		sinkEvents += int64(ring.Total())
		sinkTicks += int64(sk.res.Ticks)
		if len(bad) > 0 {
			o.failed += attempted
			for _, b := range bad {
				o.problem("log %d: %s", i, b)
			}
		}
		untraced = append(untraced, float64(pub.cl.committed)/float64(pub.wallNs))
		traced = append(traced, float64(cr.cl.committed)/float64(cr.wallNs))
		return ly.addLog(cr, cal)
	})
	if err != nil {
		return nil, err
	}
	overhead := median(untraced)/median(traced) - 1
	fmt.Printf("tracing overhead: traced composition runs at %.4g ops/s vs %.4g untraced (%+.1f%%)\n",
		median(traced)*1e9, median(untraced)*1e9, overhead*100)
	r := &o.rep
	ly.report(r, cal)
	r.add("obs.sinks_overhead_frac", median(sinkFrac), "fraction", fmt.Sprintf("median over %d logs", len(sinkFrac)))
	r.add("obs.emit_ns_per_event", float64(sinkNs)/float64(sinkEvents), "ns/event", fmt.Sprintf("(%d events)", sinkEvents))
	r.add("obs.events_per_tick", float64(sinkEvents)/float64(sinkTicks), "events/tick", fmt.Sprintf("(%d ticks)", sinkTicks))
	r.add("sim.setup_ns_per_op", 0, "ns/op", "n/a: single-shot only")
	r.add("sim.drive_self_ns_per_op", 0, "ns/op", "n/a: single-shot only")
	r.add("bench.trace_overhead_frac", overhead, "fraction", "untraced/traced ops_per_s - 1")
	// The split closes by construction; what can fail is the measured spans
	// outgrowing the measured ticks (the instrumentation estimate is only
	// reported).
	if spans := ly.prepare + ly.deliver + ly.exchange + ly.gear; spans > ly.tickTotal {
		o.problem("tick accounting does not close: spans take %d ns of %d ns of ticks", spans, ly.tickTotal)
	}
	return o, nil
}

// self is the rsm layer's own time: the measured tick time less the
// consensus, exchange and gear spans and the instrumentation's cost.
func (ly *layers) self() float64 {
	return float64(ly.tickTotal-ly.prepare-ly.deliver-ly.exchange-ly.gear) - ly.unattributed
}

// report adds the per-layer metrics of a log workload and prints the
// tick split, which closes by construction: every nanosecond of tick
// time is a span, the rsm remainder, or instrumentation.
func (ly *layers) report(r *report, cal calibration) {
	ticks := float64(ly.ticks)
	perTick := func(x float64) float64 { return x / ticks }
	div := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	tk := fmt.Sprintf("(%d ticks, %d logs)", ly.ticks, ly.logs)
	ops := fmt.Sprintf("(%d ops)", ly.ops)
	fmt.Printf("tick split, ns/tick: consensus %.0f + exchange %.0f + gear %.0f + rsm self %.0f + unattributed %.0f = %.0f measured\n",
		perTick(float64(ly.prepare+ly.deliver)), perTick(float64(ly.exchange)), perTick(float64(ly.gear)),
		perTick(ly.self()), perTick(ly.unattributed), perTick(float64(ly.tickTotal)))
	fmt.Printf("instrumentation: %.1f ns per timed span, %.1f ns per traced event\n", cal.spanNs, cal.eventNs)
	r.add("shiftgears.gear_pick_calls", div(ly.picks, ly.logs), "calls/log", fmt.Sprintf("(%d calls)", ly.picks))
	r.add("shiftgears.gear_pick_ns", div(ly.pickNs, ly.picks), "ns/call", fmt.Sprintf("(%d calls)", ly.picks))
	r.add("shiftgears.gear_prefix_len", div(ly.prefix, ly.picks), "entries", fmt.Sprintf("(%d calls)", ly.picks))
	r.add("shiftgears.slot_protocol_calls", div(ly.protoCalls, ly.logs), "calls/log", fmt.Sprintf("(%d calls)", ly.protoCalls))
	r.add("shiftgears.slot_protocol_ns", div(ly.protoNs, ly.protoCalls), "ns/call", fmt.Sprintf("(%d calls)", ly.protoCalls))
	r.add("shiftgears.gear_ns_per_tick", perTick(float64(ly.gear)), "ns", tk)
	r.add("rsm.self_ns_per_tick", perTick(ly.self()), "ns", tk)
	r.add("rsm.batch_fill_frac", div(ly.ops, ly.batchPositions), "fraction", fmt.Sprintf("(%d correct-source slots)", ly.sourced))
	r.add("rsm.slot_ns_growth", median(ly.growth), "ratio", fmt.Sprintf("median over %d logs", len(ly.growth)))
	r.add("core.prepare_ns_per_tick", perTick(float64(ly.prepare)), "ns", tk)
	r.add("core.deliver_ns_per_tick", perTick(float64(ly.deliver)), "ns", tk)
	r.add("core.instance_rounds_per_tick", perTick(float64(ly.prepareCalls)), "rounds/tick", tk)
	r.add("core.resolve_ops_per_op", div(ly.resolveOps, ly.ops), "ops/op", ops)
	r.add("core.discovery_reads_per_op", div(ly.discoveryReads, ly.ops), "reads/op", ops)
	r.add("core.peak_tree_nodes", float64(ly.peakTree), "nodes", "max over correct instances")
	r.add("fabric.exchange_ns_per_tick", perTick(float64(ly.exchange)), "ns", tk)
	r.add("fabric.frames_per_tick", perTick(float64(ly.frames)), "frames/tick", tk)
	r.add("fabric.bytes_per_tick", perTick(float64(ly.bytes)), "bytes/tick", tk)
	r.add("fabric.tick_ns_mean", perTick(float64(ly.tickTotal)), "ns", tk)
	r.add("fabric.tick_ns_p50", quantile(ly.tickNs, 0.50), "ns", tk)
	r.add("fabric.tick_ns_p99", quantile(ly.tickNs, 0.99), "ns", tk)
	r.add("fabric.tick_unattributed_ns", perTick(ly.unattributed), "ns", "instrumentation estimate per tick")
	r.add("runtime.gc_cpu_frac", ly.mem.gcFrac(), "fraction", "of Go CPU in the traced drive loops")
	ly.cpu.report(r)
}

// report adds the cpu.*_frac shares, which sum to 1, and the sample
// count behind them.
func (cs cpuShares) report(r *report) {
	total := cs.total()
	samples := fmt.Sprintf("(%d samples)", total)
	for _, b := range cpuBuckets {
		share := 0.0
		if total > 0 {
			share = float64(cs[b]) / float64(total)
		}
		r.add("cpu."+b+"_frac", share, "fraction", samples)
	}
	r.add("cpu.samples", float64(total), "count", "CPU profile samples of the traced drive loops")
}
