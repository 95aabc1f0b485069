package workload

import (
	"slices"
	"sort"
	"testing"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

func fleetSys(name string, cores int) (*Env, vm.System) {
	return fleetSysCfg(name, hw.DefaultConfig(cores))
}

// fleetSysCfg builds a fleet environment under an explicit machine config
// (TestConfig's short epochs make refcache review pressure observable in
// runs far shorter than a realistic 10 ms epoch).
func fleetSysCfg(name string, mc hw.Config) (*Env, vm.System) {
	m := hw.NewMachine(mc)
	rc := refcache.New(m)
	alloc := mem.NewAllocator(m, rc)
	env := &Env{M: m, RC: rc}
	switch name {
	case "radixvm":
		return env, vm.New(m, rc, alloc, vm.NewPerCoreMMU(m))
	case "linux":
		return env, linuxvm.New(m, rc, alloc)
	default:
		return env, bonsaivm.New(m, rc, alloc)
	}
}

func TestFleetRunsOnAllSystems(t *testing.T) {
	for _, name := range []string{"radixvm", "linux", "bonsai"} {
		env, sys := fleetSysCfg(name, hw.TestConfig(4))
		cfg := DefaultFleetConfig()
		cfg.Procs = 64
		cfg.MaxLive = 16
		r := Fleet(env, sys, 4, cfg)
		if want := uint64(64 * 2 * 16); r.PageWrites != want {
			t.Fatalf("%s: PageWrites = %d, want %d", name, r.PageWrites, want)
		}
		if r.Stats.Forks != 64 {
			t.Fatalf("%s: Forks = %d, want 64 (one per arrival)", name, r.Stats.Forks)
		}
		if r.Spawns != 64 {
			t.Fatalf("%s: Spawns = %d, want 64", name, r.Spawns)
		}
		if r.P50 == 0 || r.P99 < r.P50 {
			t.Fatalf("%s: latency percentiles p50=%d p99=%d", name, r.P50, r.P99)
		}
		// The pool must have held the fleet near its residency cap and torn
		// the rest down: every spawned space is either still resident or was
		// LRU-evicted.
		if r.LiveEnd != 16 {
			t.Fatalf("%s: LiveEnd = %d, want 16", name, r.LiveEnd)
		}
		if got := len(r.Evictions); got != 64-16 {
			t.Fatalf("%s: evictions = %d, want %d", name, got, 64-16)
		}
		if r.RunQHigh == 0 {
			t.Fatalf("%s: run queue high-water stayed 0", name)
		}
		if r.Reviews == 0 || r.ReviewQHigh == 0 {
			t.Fatalf("%s: no refcache review pressure recorded (reviews=%d, high=%d)", name, r.Reviews, r.ReviewQHigh)
		}
	}
}

// TestFleetMultithreadedChildrenScaling is the fleet's headline regression:
// spawn throughput on the baselines stays flat from 1 to 8 cores — every
// fork's dup_mmap pass serializes on the one hot template's lock, and the
// multithreaded children broadcast their COW breaks — while RadixVM's
// O(1) generation fork and per-core page tables let the same fleet scale.
func TestFleetMultithreadedChildrenScaling(t *testing.T) {
	spawnRate := func(name string, cores int) float64 {
		env, sys := fleetSys(name, cores)
		cfg := DefaultFleetConfig()
		cfg.Procs = 256
		// MaxLive == Procs: no LRU teardown during the measurement, so the
		// ratio isolates spawn-path scaling from eviction cost; the extra
		// compute quanta give the children enough parallel substance that
		// the per-spawn serial sections are what the ratio measures.
		cfg.MaxLive = 256
		cfg.Quanta = 12
		return Fleet(env, sys, cores, cfg).SpawnsPerSec()
	}
	if one, eight := spawnRate("radixvm", 1), spawnRate("radixvm", 8); eight < 4*one {
		t.Errorf("radixvm fleet did not scale: %.0f -> %.0f spawns/s from 1 -> 8 cores (%.2fx, want >= 4x)",
			one, eight, eight/one)
	}
	for _, name := range []string{"linux", "bonsai"} {
		if one, eight := spawnRate(name, 1), spawnRate(name, 8); eight > 1.15*one {
			t.Errorf("%s fleet scaled unexpectedly: %.0f -> %.0f spawns/s from 1 -> 8 cores (%.2fx, want < 1.15x)",
				name, one, eight, eight/one)
		}
	}
}

// TestFleetSustainsThousandLive drives the pool to the ISSUE's headline
// scale: over a thousand address spaces simultaneously resident under the
// memory ceiling, with LRU teardown recycling the rest.
func TestFleetSustainsThousandLive(t *testing.T) {
	if testing.Short() {
		t.Skip("1280-process fleet")
	}
	env, sys := fleetSys("radixvm", 8)
	cfg := DefaultFleetConfig()
	cfg.Procs = 1280
	cfg.MaxLive = 1024
	r := Fleet(env, sys, 8, cfg)
	if r.LiveHigh < 1024 {
		t.Errorf("fleet peaked at %d live address spaces, want >= 1024", r.LiveHigh)
	}
	if r.LiveEnd != 1024 {
		t.Errorf("fleet ended with %d live address spaces, want 1024", r.LiveEnd)
	}
	if want := 1280 - 1024; len(r.Evictions) != want {
		t.Errorf("evictions = %d, want %d", len(r.Evictions), want)
	}
	// LRU: every eviction takes the dormant process that ran least recently
	// (ties by ID). A process's last run is stamped by its last thread's
	// finish, frozen from then on, and a process still running at an eviction
	// finishes after it — so the evictions are the 256 least-recently-run
	// processes of the whole run, in that order. Arrival order is not it:
	// children's threads run where the schedule puts them, and process 1
	// finishes before 0.
	lru := make([]int, len(r.procs))
	for id := range lru {
		lru[id] = id
	}
	sort.SliceStable(lru, func(i, j int) bool { return r.procs[lru[i]].lastRun < r.procs[lru[j]].lastRun })
	if !slices.Equal(r.Evictions, lru[:len(r.Evictions)]) {
		t.Errorf("evictions are not the least-recently-run processes in order:\n got %v\nwant %v", r.Evictions, lru[:len(r.Evictions)])
	}
}

// TestFleetThroughputIsNotALottery: a figure cell is an outcome, and an
// outcome may not depend on which arrival stream was drawn. At 64 cores, at
// the shape bench/ and CI measure (1 536 arrivals against a 1 024-space pool),
// the fleet used to give 40-97 K spawns/s over seeds 1-6 (max/min 2.41): the
// core that folded one due arrival kept folding, so whichever laggard crossed
// a stamp first ran every fork and every eviction's Exit in the backlog, and
// each fork's Reset interrupted all 63 other cores on top. With the fold a
// yield point and Reset aimed at holders the six seeds sit within 6 % of each
// other, just under the offered 120 K/s. CI prints the logged line.
func TestFleetThroughputIsNotALottery(t *testing.T) {
	if testing.Short() {
		t.Skip("six 1536-process fleets at 64 cores")
	}
	var rates []float64
	for seed := int64(1); seed <= 6; seed++ {
		env, sys := fleetSys("radixvm", 64)
		cfg := DefaultFleetConfig()
		cfg.Procs, cfg.MaxLive, cfg.Seed = 1536, 1024, seed
		rates = append(rates, Fleet(env, sys, 64, cfg).SpawnsPerSec()/1e3)
	}
	t.Logf("64-core fleet, seeds 1-6: %.1f K spawns/s", rates)
	if lo, hi := slices.Min(rates), slices.Max(rates); hi > 1.10*lo {
		t.Errorf("spawn throughput depends on the arrival seed: %.1f-%.1f K spawns/s over seeds 1-6 (max/min %.2f, want <= 1.10)", lo, hi, hi/lo)
	}
}
