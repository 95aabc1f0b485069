package workload

import (
	"fmt"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

// newDetEnv builds a fresh machine + refcache + RadixVM system with the
// figure harness's cost model (DefaultConfig, not TestConfig, so the test
// reproduces the figures' exact arithmetic).
func newDetEnv(ncores int) (*Env, vm.System) {
	m := hw.NewMachine(hw.DefaultConfig(ncores))
	rc := refcache.New(m)
	alloc := mem.NewAllocator(m, rc)
	return &Env{M: m, RC: rc}, vm.New(m, rc, alloc, vm.NewPerCoreMMU(m))
}

// snapshot captures everything a deterministic run must reproduce: the
// figure-level result, every per-core final virtual clock, and every
// per-core Stats counter and cycle meter.
type snapshot struct {
	res    Result
	clocks []uint64
	stats  []hw.Stats
	cycles []hw.Cycles
}

func snap(env *Env, res Result) snapshot {
	s := snapshot{res: res}
	for i := 0; i < env.M.NCores(); i++ {
		c := env.M.CPU(i)
		s.clocks = append(s.clocks, c.Now())
		s.stats = append(s.stats, *c.Stats())
		s.cycles = append(s.cycles, c.Cycles())
	}
	return s
}

// checkMeter asserts the cycle meter's invariant on every core of m: the
// causes sum to the clock's advance since ResetStats.
func checkMeter(t *testing.T, name string, m *hw.Machine) {
	t.Helper()
	for i := 0; i < m.NCores(); i++ {
		c := m.CPU(i)
		y := c.Cycles()
		if got, want := y.Total(), c.Elapsed(); got != want {
			t.Errorf("%s: core %d causes sum to %d cycles, clock advanced %d: %v", name, i, got, want, y)
		}
	}
}

func compare(t *testing.T, name string, a, b snapshot) {
	t.Helper()
	if a.res.PageWrites != b.res.PageWrites || a.res.Cycles != b.res.Cycles {
		t.Errorf("%s: result diverged: writes %d/%d cycles %d/%d",
			name, a.res.PageWrites, b.res.PageWrites, a.res.Cycles, b.res.Cycles)
	}
	if a.res.Stats != b.res.Stats {
		t.Errorf("%s: total stats diverged:\n run1: %+v\n run2: %+v", name, a.res.Stats, b.res.Stats)
	}
	for i := range a.clocks {
		if a.clocks[i] != b.clocks[i] {
			t.Errorf("%s: core %d final clock %d != %d", name, i, a.clocks[i], b.clocks[i])
		}
		if a.stats[i] != b.stats[i] {
			t.Errorf("%s: core %d stats diverged:\n run1: %+v\n run2: %+v", name, i, a.stats[i], b.stats[i])
		}
		if a.cycles[i] != b.cycles[i] {
			t.Errorf("%s: core %d cycle meter diverged:\n run1: %v\n run2: %v", name, i, a.cycles[i], b.cycles[i])
		}
	}
}

// TestWorkloadsDeterministic runs each concurrent gang workload twice
// in-process with identical inputs and asserts per-core final virtual
// clocks, all Stats counters and the cycle meters are identical, and that
// each core's causes sum to its clock advance. This is the regression gate
// for the deterministic schedule: figure cells are byte-gated in CI, and
// this test catches a reintroduced real-time dependency at the source,
// under -race, without generating figures.
func TestWorkloadsDeterministic(t *testing.T) {
	const cores = 8
	cases := []struct {
		name string
		run  func(env *Env, sys vm.System) Result
	}{
		{"fork", func(env *Env, sys vm.System) Result { return Fork(env, sys, cores, 4, 8) }},
		{"spawn", func(env *Env, sys vm.System) Result { return Spawn(env, sys, cores, 4, 4) }},
		{"clone", func(env *Env, sys vm.System) Result { return Clone(env, sys, cores, 4, 64, 4) }},
		{"mprotect", func(env *Env, sys vm.System) Result { return Protect(env, sys, cores, 4, 8) }},
		{"local", func(env *Env, sys vm.System) Result { return Local(env, sys, cores, 4, 4) }},
		{"global", func(env *Env, sys vm.System) Result { return Global(env, sys, cores, 2, 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env1, sys1 := newDetEnv(cores)
			s1 := snap(env1, tc.run(env1, sys1))
			checkMeter(t, tc.name, env1.M)
			env2, sys2 := newDetEnv(cores)
			s2 := snap(env2, tc.run(env2, sys2))
			compare(t, tc.name, s1, s2)
		})
	}
}

// fleetDet runs the fleet on a fresh radixvm environment under the figure
// cost model and returns (snapshot, full fleet result).
func fleetDet(t *testing.T, cores int, cfg FleetConfig) (snapshot, FleetResult) {
	env, sys := newDetEnv(cores)
	r := Fleet(env, sys, cores, cfg)
	checkMeter(t, "fleet", env.M)
	return snap(env, r.Result), r
}

func compareFleet(t *testing.T, name string, a, b FleetResult) {
	t.Helper()
	if a.P50 != b.P50 || a.P99 != b.P99 {
		t.Errorf("%s: latency percentiles diverged: p50 %d/%d p99 %d/%d",
			name, a.P50, b.P50, a.P99, b.P99)
	}
	if a.LiveHigh != b.LiveHigh || a.LiveEnd != b.LiveEnd {
		t.Errorf("%s: residency diverged: high %d/%d end %d/%d",
			name, a.LiveHigh, b.LiveHigh, a.LiveEnd, b.LiveEnd)
	}
	if a.RunQHigh != b.RunQHigh || a.Deferred != b.Deferred {
		t.Errorf("%s: scheduler pressure diverged: runq %d/%d deferred %d/%d",
			name, a.RunQHigh, b.RunQHigh, a.Deferred, b.Deferred)
	}
	if len(a.Evictions) != len(b.Evictions) {
		t.Fatalf("%s: eviction counts diverged: %d/%d", name, len(a.Evictions), len(b.Evictions))
	}
	for i := range a.Evictions {
		if a.Evictions[i] != b.Evictions[i] {
			t.Fatalf("%s: LRU eviction sequence diverged at %d: proc %d != %d",
				name, i, a.Evictions[i], b.Evictions[i])
		}
	}
}

// TestFleetDeterministic is the scheduled-machine extension of the
// determinism gate: a 512-process fleet — Poisson arrivals, multithreaded
// procs pinned round-robin, admission control, LRU pool eviction — run twice at
// 8 cores must reproduce not just clocks and stats but the latency
// percentiles and the exact LRU eviction sequence. Dispatch order is a
// pure function of (virtual clock, core ID, arrival seq), so any real-time
// dependency sneaking into the scheduler shows up here.
func TestFleetDeterministic(t *testing.T) {
	const cores = 8
	cfg := DefaultFleetConfig()
	s1, r1 := fleetDet(t, cores, cfg)
	s2, r2 := fleetDet(t, cores, cfg)
	compare(t, "fleet", s1, s2)
	compareFleet(t, "fleet", r1, r2)
	if len(r1.Evictions) == 0 {
		t.Errorf("fleet run recorded no evictions; the LRU-sequence assertion is vacuous")
	}
}

// TestFleetDeterministicManyCores runs the fleet across every socket of
// the big machine, where idle-worker arrival adoption and children spread
// across sockets get the most room to reorder events.
func TestFleetDeterministicManyCores(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core double fleet run")
	}
	const cores = 64
	cfg := DefaultFleetConfig()
	s1, r1 := fleetDet(t, cores, cfg)
	s2, r2 := fleetDet(t, cores, cfg)
	compare(t, "fleet@64", s1, s2)
	compareFleet(t, "fleet@64", r1, r2)
}

// TestSpawnDeterministicManyCores exercises the cross-socket shape of the
// scale figure's spawn row, where concurrent forks contend hardest on the
// address-space structures.
func TestSpawnDeterministicManyCores(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core double run")
	}
	const cores = 64
	env1, sys1 := newDetEnv(cores)
	s1 := snap(env1, Spawn(env1, sys1, cores, 2, 2))
	checkMeter(t, "spawn@64", env1.M)
	env2, sys2 := newDetEnv(cores)
	s2 := snap(env2, Spawn(env2, sys2, cores, 2, 2))
	compare(t, "spawn@64", s1, s2)
}

// TestResultPrintDeterministic guards the print bench/ fingerprints a run by:
// %+v of the workload's result. FleetResult and FileServeResult embed Result,
// so that print is Result.String, a pure function of the run, and not their
// fields, which include process pointers that differ every run. Each print
// must equal String and repeat across two runs.
func TestResultPrintDeterministic(t *testing.T) {
	const cores = 4
	runs := []struct {
		name string
		run  func() fmt.Stringer
	}{
		{"local", func() fmt.Stringer {
			env, sys := newDetEnv(cores)
			return Local(env, sys, cores, 10, 1)
		}},
		{"fleet", func() fmt.Stringer {
			env, sys := newDetEnv(cores)
			cfg := DefaultFleetConfig()
			cfg.Procs, cfg.MaxLive = 24, 16
			return Fleet(env, sys, cores, cfg)
		}},
		{"filemap", func() fmt.Stringer {
			env, sys, alloc := fsSys("radixvm", hw.DefaultConfig(cores))
			return FileServe(env, sys, cores, alloc, fsSmallConfig())
		}},
	}
	for _, r := range runs {
		a, b := r.run(), r.run()
		print := fmt.Sprintf("%+v", a)
		if print != a.String() {
			t.Errorf("%s: %%+v prints %q, not String's %q", r.name, print, a.String())
		}
		if again := fmt.Sprintf("%+v", b); again != print {
			t.Errorf("%s: %%+v differs between runs:\n %s\n %s", r.name, print, again)
		}
	}
}
