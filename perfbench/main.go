// Command perfbench is the benchmark of record for the shiftgears
// replicated log and single-shot agreement: wall-clock throughput and
// commit latency on four workloads (see workloads.go and README.md),
// measured through the public API with tracing off, plus a separate
// traced run that splits the time across the library's layers.
//
// Run it from the root of the repository through its wrapper, which
// builds the binary under .bench_build/:
//
//	python3 perfbench/run.py --workload steady-tcp --seed 1 --seconds 40 --trace 0
//
// It prints one line per metric (name, value, unit, sample count) and,
// as its last line, a JSON object with keys correct, attempted, failed
// and metrics: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. It exits non-zero on any correctness or
// traced-run equivalence failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
)

// endToEnd are the metrics a user of the library sees, reported with
// tracing off (--trace 0).
var endToEnd = []string{
	"ops_per_s", "op_p50_ms", "op_p99_ms", "op_p50_ticks", "op_p99_ticks",
	"ops_per_tick", "wire_bytes_per_op", "allocs_per_op", "alloc_bytes_per_op",
	"retained_heap_mb", "setup_s", "ok_frac",
}

// perLayer are the traced run's metrics (--trace 1).
var perLayer = append([]string{
	"shiftgears.gear_pick_calls", "shiftgears.gear_pick_ns", "shiftgears.gear_prefix_len",
	"shiftgears.slot_protocol_calls", "shiftgears.slot_protocol_ns", "shiftgears.gear_ns_per_tick",
	"rsm.self_ns_per_tick", "rsm.batch_fill_frac", "rsm.slot_ns_growth",
	"core.prepare_ns_per_tick", "core.deliver_ns_per_tick", "core.instance_rounds_per_tick",
	"core.resolve_ops_per_op", "core.discovery_reads_per_op", "core.peak_tree_nodes",
	"fabric.exchange_ns_per_tick", "fabric.frames_per_tick", "fabric.bytes_per_tick",
	"fabric.tick_ns_mean", "fabric.tick_ns_p50", "fabric.tick_ns_p99", "fabric.tick_unattributed_ns",
	"sim.setup_ns_per_op", "sim.drive_self_ns_per_op",
	"obs.sinks_overhead_frac", "obs.emit_ns_per_event", "obs.events_per_tick",
	"runtime.gc_cpu_frac", "bench.trace_overhead_frac", "cpu.samples",
}, cpuMetricNames()...)

func cpuMetricNames() []string {
	var names []string
	for _, b := range cpuBuckets {
		names = append(names, "cpu."+b+"_frac")
	}
	return names
}

// outcome is one run's report and correctness record.
type outcome struct {
	rep               report
	attempted, failed int
	problems          []string
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload name: steady-tcp, geared-n13, single-shot-n13")
	seed := flag.Uint64("seed", 1, "workload seed: drives command values, LogConfig.Seed and Config.Seed")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		flag.Usage()
		os.Exit(2)
	}
	units, err := checkManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	outstanding := 0
	if w.log != nil {
		outstanding = w.log.outstanding
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	if w.single != nil && w.single.gcPercent != 0 {
		debug.SetGCPercent(w.single.gcPercent)
		gogc = strconv.Itoa(w.single.gcPercent)
	}
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("stamp nproc=%d gomaxprocs=%d go=%s gogc=%s seed=%d outstanding=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc, *seed, outstanding, *seconds, *traced)

	var o *outcome
	switch {
	case w.log != nil && *traced == 1:
		o, err = traceLogs(w.log, *seed, *seconds)
	case w.log != nil:
		o, err = measureLogs(w.log, *seed, *seconds)
	case *traced == 1:
		o, err = traceSingle(w.single, *seed, *seconds)
	default:
		o, err = measureSingle(w.single, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
		os.Exit(1)
	}
	o.rep.print()
	for _, p := range o.problems {
		fmt.Println("FAIL", p)
	}
	names := endToEnd
	if *traced == 1 {
		names = perLayer
	}
	correct := len(o.problems) == 0 && o.failed == 0
	fmt.Printf("{\"correct\": %t, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
		correct, o.attempted, o.failed, o.rep.json(names, units))
	if !correct {
		os.Exit(1)
	}
}

// manifestEntry is one named workload or metric of BENCHMARK.json.
type manifestEntry struct{ Name, Unit string }

// checkManifest verifies that BENCHMARK.json, when present, names
// exactly the workloads and metrics this program reports, and returns
// the metrics' units.
func checkManifest(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m struct {
		Workloads []manifestEntry `json:"workloads"`
		EndToEnd  []manifestEntry `json:"end_to_end"`
		PerLayer  []manifestEntry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	names := func(xs []manifestEntry) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		slices.Sort(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := slices.Clone(xs)
		slices.Sort(out)
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	switch {
	case !slices.Equal(names(m.Workloads), sorted(ws)):
		return nil, fmt.Errorf("%s workloads differ from the benchmark's table", path)
	case !slices.Equal(names(m.EndToEnd), sorted(endToEnd)):
		return nil, fmt.Errorf("%s end_to_end metrics differ from the benchmark's", path)
	case !slices.Equal(names(m.PerLayer), sorted(perLayer)):
		return nil, fmt.Errorf("%s per_layer metrics differ from the benchmark's", path)
	}
	units := make(map[string]string)
	for _, e := range append(m.EndToEnd, m.PerLayer...) {
		units[e.Name] = e.Unit
	}
	return units, nil
}
