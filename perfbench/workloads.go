package main

import "shiftgears"

// workload is one named input set of the benchmark. Exactly one of log
// and single is set.
type workload struct {
	name string
	// why is the reason the workload exists: the layers it makes do the
	// work, and the changes it exercises or bypasses.
	why    string
	log    *logWorkload
	single *singleWorkload
}

// logWorkload drives a replicated log through the public API under a
// closed loop: every correct replica keeps outstanding commands queued,
// and each command that commits at its receiving replica is replaced by
// a new one. Logs are run back to back, each a fresh NewReplicatedLog of
// cfg.Slots slots seeded from the run seed and the log's index.
type logWorkload struct {
	cfg shiftgears.LogConfig
	// outstanding is the per-replica closed-loop depth. It is chosen so
	// that no correct source ever proposes an empty batch: an empty batch
	// would convict a correct source under Downshift/Blacklist, and the
	// benchmark checks that none occurs.
	outstanding int
}

// singleWorkload runs shiftgears.Run back to back: a closed loop of one,
// each agreement with a fresh seed and source value.
type singleWorkload struct {
	cfg shiftgears.Config
	// batch is the number of agreements one throughput sample covers;
	// chunk the number one latency-percentile sample covers.
	batch, chunk int
	// gcPercent is the GC target the run sets. An agreement allocates
	// about 185 KB against a small live heap, so at the default of 100
	// about 1% of agreements overlap a GC cycle and take up to twice as
	// long: a second population right at the p99. At 400 a quarter as
	// many overlap; the GC's cost still shows in ops_per_s,
	// runtime.gc_cpu_frac and the allocation metrics.
	gcPercent int
}

// workloads is the benchmark's workload table. Layer predictions (which
// per-layer metric should move which end-to-end metric, where) are in
// README.md next to this directory's code.
var workloads = []workload{
	{
		// A fault-free static log over the loopback TCP mesh: the only
		// workload where transport does the work, and with the rsm slot
		// codec and commit, sim.Mux and fabric.Run bookkeeping around it.
		// EIG trees are tiny (Exponential, t=2) and there are no gears or
		// faults, so it is the bypass workload for consensus and gear
		// changes. Its in-process twin on the sim fabric was dropped: on a
		// shared VM its op_p99_ms spread past the 25% bound across runs of
		// the same code (README.md, Noise).
		name: "steady-tcp",
		why:  "fault-free static Exponential log (n=7 t=2, window 8, batch 4) over the loopback TCP mesh: the only workload where the transport layer does the work",
		log: &logWorkload{
			cfg: shiftgears.LogConfig{
				Algorithm: shiftgears.Exponential, N: 7, T: 2,
				Slots: 2100, Window: 8, BatchSize: 4, Fabric: "tcp",
			},
			outstanding: 8,
		},
	},
	{
		// The CI smoke configuration, run long: deep EIG trees
		// (eigtree/faults/core), lazy gear resolution over the committed
		// prefix, per-slot protocol compilation and the adversary do the
		// work. The paper's shift applied across the log: the silent
		// sources burn their first slots and the log downshifts from
		// Hybrid to AlgorithmB.
		name: "geared-n13",
		why:  "Downshift (Hybrid to AlgorithmB) log, n=13 t=3 b=3, silent Byzantine {2,5,8}: deep EIG trees, gear resolution and the adversary do the work",
		log: &logWorkload{
			cfg: shiftgears.LogConfig{
				GearPolicy: shiftgears.Downshift{}, N: 13, T: 3, B: 3,
				Slots: 650, Window: 4, BatchSize: 2, Fabric: "sim",
				Faulty: []int{2, 5, 8}, Strategy: "silent",
			},
			outstanding: 4,
		},
	},
	{
		// The paper's own artifact: one agreement that shifts gears inside
		// the instance. The only workload on the single-shot drive loop
		// (sim.Network) and on internal/trace.
		name: "single-shot-n13",
		why:  "repeated single-shot Hybrid agreement, n=13 t=4 b=3, splitbrain Byzantine {2,5,7,11}: the paper's in-instance gear shift on the sim.Network drive loop",
		single: &singleWorkload{
			cfg: shiftgears.Config{
				Algorithm: shiftgears.Hybrid, N: 13, T: 4, B: 3, Source: 0,
				Faulty: []int{2, 5, 7, 11}, Strategy: "splitbrain",
			},
			batch: 25, chunk: 1000, gcPercent: 400,
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
