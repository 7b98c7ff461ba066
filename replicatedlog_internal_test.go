package shiftgears

import (
	"reflect"
	"sync"
	"testing"

	"shiftgears/internal/rsm"
)

// countingResolver is a gear resolver whose compilations are counted per
// (algorithm, source) key.
func countingResolver(cfg LogConfig, mu *sync.Mutex, compiles map[protoKey]int) *gearResolver {
	g := newGearResolver(cfg)
	g.compile = func(alg Algorithm, n, t, b, source int) (rsm.Protocol, error) {
		mu.Lock()
		compiles[protoKey{alg, source}]++
		mu.Unlock()
		return SlotProtocol(alg, n, t, b, source)
	}
	return g
}

// runSharedCacheLog runs a geared Downshift log at n=13 with t silent
// Byzantine sources over the given fabric. perReplica gives every replica
// a resolver of its own — the reference the shared cache must match; the
// default is the log's single shared resolver. It returns the result and
// the compile count per key.
func runSharedCacheLog(t *testing.T, fabric string, perReplica bool) (*LogResult, map[protoKey]int) {
	t.Helper()
	cfg := LogConfig{
		GearPolicy: Downshift{},
		N:          13, T: 3, B: 3,
		Slots: 39, Window: 4, BatchSize: 2,
		Faulty: []int{2, 5, 8}, Strategy: "silent", Seed: 7,
		Fabric: fabric, Parallel: true,
	}
	var mu sync.Mutex
	compiles := make(map[protoKey]int)
	shared := countingResolver(cfg, &mu, compiles)
	pick := func(o *logOptions) {
		o.gearResolver = func(id int) *gearResolver {
			if perReplica {
				return countingResolver(cfg, &mu, compiles)
			}
			return shared
		}
	}
	l, err := NewReplicatedLog(cfg, pick)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 52; c++ {
		if err := l.Submit(c%13, Value(1+c%255)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement {
		t.Fatal("correct replicas committed diverging logs")
	}
	return res, compiles
}

// TestSharedGearCacheCompilesOncePerLog: one resolver serves all replicas
// of a geared log, so each (algorithm, source) pair compiles at most once
// per log, and the log commits exactly what per-replica caches commit —
// same entries, gear schedule, ticks and traffic — on the sim fabric
// (replicas resolving concurrently under Parallel) and the TCP mesh.
func TestSharedGearCacheCompilesOncePerLog(t *testing.T) {
	for _, fabric := range []string{"sim", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			want, perCompiles := runSharedCacheLog(t, fabric, true)
			got, compiles := runSharedCacheLog(t, fabric, false)
			for key, c := range compiles {
				if c != 1 {
					t.Errorf("%v source %d compiled %d times, want once", key.alg, key.source, c)
				}
			}
			// Every slot's (gear, source) pair was compiled, and nothing else.
			used := make(map[protoKey]bool)
			for slot, alg := range got.Gears {
				used[protoKey{alg, slot % 13}] = true
			}
			if len(used) != len(compiles) {
				t.Errorf("compiled %d keys, the schedule uses %d", len(compiles), len(used))
			}
			total := 0
			for _, c := range perCompiles {
				total += c
			}
			if total <= len(compiles) {
				t.Errorf("per-replica caches compiled %d times, the shared cache %d: no sharing measured", total, len(compiles))
			}
			if !reflect.DeepEqual(got.Entries, want.Entries) {
				t.Error("shared cache committed different entries than per-replica caches")
			}
			if !reflect.DeepEqual(got.Gears, want.Gears) {
				t.Errorf("gear schedule %v, per-replica caches %v", got.Gears, want.Gears)
			}
			if got.Ticks != want.Ticks || got.TotalBytes != want.TotalBytes || got.Messages != want.Messages {
				t.Errorf("ticks/bytes/messages %d/%d/%d, per-replica caches %d/%d/%d",
					got.Ticks, got.TotalBytes, got.Messages, want.Ticks, want.TotalBytes, want.Messages)
			}
			if got.Gears[0] == got.Gears[len(got.Gears)-1] {
				t.Errorf("log never shifted gears: %v", got.Gears)
			}
		})
	}
}

// TestGearResolverConcurrentMisses: replicas missing the cache on the same
// keys at once get one compilation per key, and the same protocol.
func TestGearResolverConcurrentMisses(t *testing.T) {
	cfg := LogConfig{GearPolicy: Downshift{}, N: 13, T: 3, B: 3}
	var mu sync.Mutex
	compiles := make(map[protoKey]int)
	g := countingResolver(cfg, &mu, compiles)
	keys := []protoKey{{Hybrid, 0}, {Hybrid, 1}, {AlgorithmB, 0}, {AlgorithmB, 7}}
	got := make([][]rsm.Protocol, cfg.N)
	var wg sync.WaitGroup
	for id := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, key := range keys {
				proto, err := g.protocol(key)
				if err != nil {
					t.Error(err)
					return
				}
				got[id] = append(got[id], proto)
			}
		}()
	}
	wg.Wait()
	for _, key := range keys {
		if compiles[key] != 1 {
			t.Errorf("%v source %d compiled %d times, want once", key.alg, key.source, compiles[key])
		}
	}
	for id := range got {
		if !reflect.DeepEqual(got[id], got[0]) {
			t.Fatalf("replica %d resolved different protocols than replica 0", id)
		}
	}
}
