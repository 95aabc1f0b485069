package hw

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestSchedPinnedGangEquivalence pins the degenerate-fleet claim from
// RunGangDet's doc comment: N procs, each pinned to its own core, produce exactly
// the virtual timeline a fixed det gang produces for the same bodies —
// same per-core clocks, same stats. RunGangDet is now that fleet, so the two
// sides run the same loop and this holds by construction; the dispatch
// order itself is pinned by TestSchedTraceGolden.
func TestSchedPinnedGangEquivalence(t *testing.T) {
	const ncores = 4
	const iters = 200
	body := func(c *CPU, l *Line, sync func()) {
		for k := 0; k < iters; k++ {
			c.Write(l)
			c.Tick(100)
			sync()
		}
	}

	mg := NewMachine(TestConfig(ncores))
	var lg Line
	RunGangDet(mg, ncores, 1000, func(c *CPU, g *Gang) {
		body(c, &lg, func() { g.Sync(c) })
	})

	ms := NewMachine(TestConfig(ncores))
	var ls Line
	s := NewSched(0)
	for id := 0; id < ncores; id++ {
		s.Spawn(id, func(tc *Ctx) {
			body(tc.CPU(), &ls, tc.Yield)
		})
	}
	s.Run(ms, ncores, 1000)

	for id := 0; id < ncores; id++ {
		if g, sc := mg.CPU(id).Now(), ms.CPU(id).Now(); g != sc {
			t.Errorf("core %d: gang clock %d != sched clock %d", id, g, sc)
		}
	}
	if g, sc := mg.TotalStats(), ms.TotalStats(); g != sc {
		t.Errorf("stats diverged:\n gang: %+v\nsched: %+v", g, sc)
	}
	if s.Switches() != 0 {
		t.Errorf("pinned one-proc-per-core fleet paid %d context switches, want 0", s.Switches())
	}
}

// TestSchedMigration: more migratable procs than cores must all run to
// completion, spreading across workers, and every redispatch that changes
// procs on a worker must be counted as a switch.
func TestSchedMigration(t *testing.T) {
	const ncores = 2
	const nprocs = 6
	m := NewMachine(TestConfig(ncores))
	s := NewSched(0)
	s.SwitchCost = 500
	cores := make([]map[int]bool, nprocs)
	for i := 0; i < nprocs; i++ {
		i := i
		cores[i] = make(map[int]bool)
		s.Spawn(-1, func(tc *Ctx) {
			for k := 0; k < 20; k++ {
				c := tc.CPU()
				cores[i][c.ID()] = true
				c.Tick(300)
				tc.Yield()
			}
		})
	}
	s.Run(m, ncores, 1000)
	migrated := false
	for i, set := range cores {
		if len(set) == 0 {
			t.Fatalf("proc %d never ran", i)
		}
		if len(set) > 1 {
			migrated = true
		}
	}
	if !migrated {
		t.Errorf("no proc ever migrated across %d workers", ncores)
	}
	if s.Switches() == 0 {
		t.Errorf("oversubscribed fleet recorded zero context switches")
	}
	if s.Dispatches() < nprocs*20 {
		t.Errorf("dispatches = %d, want >= %d", s.Dispatches(), nprocs*20)
	}
}

// TestSchedParkWake: a consumer parks until a producer wakes it; a Wake
// that lands before the Park (the pending-wakeup protocol) makes the Park
// return immediately instead of stranding the consumer.
func TestSchedParkWake(t *testing.T) {
	m := NewMachine(TestConfig(2))
	s := NewSched(0)
	var order []string
	consumer := s.Spawn(0, func(tc *Ctx) {
		order = append(order, "consumer-park")
		tc.Park()
		order = append(order, "consumer-woke")
		tc.Park() // the producer's second Wake is already pending: no block
		order = append(order, "consumer-done")
	})
	s.Spawn(1, func(tc *Ctx) {
		tc.CPU().Tick(5000) // let the consumer reach its Park first
		tc.Yield()
		order = append(order, "producer-wake")
		tc.Sched().Wake(consumer)
		tc.Sched().Wake(consumer) // consumer is ready: arms wakePending
	})
	s.Run(m, 2, 1000)
	want := []string{"consumer-park", "producer-wake", "consumer-woke", "consumer-done"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSchedQueueCapDefersArrivals: the admission cap counts the whole
// ready backlog — pinned queues included — and a due arrival must wait
// until the backlog drains below the cap. (The cap originally counted only
// the migratable queue, which made it dead for all-pinned fleets.)
func TestSchedQueueCapDefersArrivals(t *testing.T) {
	m := NewMachine(TestConfig(2))
	s := NewSched(2)
	var folded int
	s.Arrive(1000, func(c *CPU, seq uint64) {
		folded++
		for i := 0; i < 4; i++ {
			s.Spawn(0, func(tc *Ctx) { // spawns bypass the cap: backlog 3-4
				for k := 0; k < 10; k++ {
					tc.CPU().Tick(500)
					tc.Yield()
				}
			})
		}
	})
	s.Arrive(1100, func(c *CPU, seq uint64) {
		folded++
		if got := s.DeferredArrivals(); got == 0 {
			t.Errorf("second arrival folded with no deferral recorded; backlog never gated it")
		}
	})
	s.Run(m, 2, 1000)
	if folded != 2 {
		t.Errorf("folded %d arrivals, want 2", folded)
	}
	if high := s.RunQueueHighWater(); high < 3 {
		t.Errorf("ready-backlog high water = %d, want >= 3 (pinned procs must count)", high)
	}
}

// TestSchedIdleArrivalAdoption: with nothing runnable anywhere and spawn
// arrivals still pending, idle workers behave as halted CPUs — each
// advances its clock to the next arrival stamp, so folds land on the
// lowest-clock cores and spread across the machine instead of piling onto
// whichever worker happens to be busy. (The old rule let only the last
// active worker advance time, which froze laggard cores' clocks for whole
// runs and starved epoch-based machinery behind them.)
func TestSchedIdleArrivalAdoption(t *testing.T) {
	const ncores = 4
	m := NewMachine(TestConfig(ncores))
	s := NewSched(0)
	stamps := []uint64{10_000, 20_000, 30_000, 40_000}
	foldCores := make(map[int]bool)
	var late atomic.Uint64
	for _, st := range stamps {
		st := st
		s.Arrive(st, func(c *CPU, seq uint64) {
			if c.Now() < st {
				late.Add(1) // fold before the stamp: clock never advanced
			}
			foldCores[c.ID()] = true
			s.Spawn(-1, func(tc *Ctx) {
				tc.CPU().Tick(2000)
			})
		})
	}
	s.Run(m, ncores, 1000)
	if late.Load() != 0 {
		t.Errorf("%d arrivals folded below their stamp", late.Load())
	}
	if len(foldCores) < 2 {
		t.Errorf("all folds landed on one core: %v (idle workers never adopted arrivals)", foldCores)
	}
	if mc := m.MaxClock(); mc < stamps[len(stamps)-1] {
		t.Errorf("machine clock %d never reached the last arrival stamp %d", mc, stamps[len(stamps)-1])
	}
}

// TestFoldIsAYieldPoint: a backlog of due arrivals whose handler costs far
// more than the gap between them (a fork, an eviction) must spread over the
// machine. The folding core goes back through the pick after each fold, so
// every fold lands on the ready core with the lowest (clock, ID) at that
// moment and, on two cores with equal handlers, consecutive folds alternate.
// (The fold loop used to keep the core that had just folded: the laggard
// whose clock crossed the first stamp ran every handler in the backlog.)
func TestFoldIsAYieldPoint(t *testing.T) {
	const ncores, arrivals = 2, 8
	m := NewMachine(TestConfig(ncores))
	s := NewSched(0)
	var folders []int
	for i := 0; i < arrivals; i++ {
		s.Arrive(uint64(10*i), func(c *CPU, seq uint64) {
			other := m.CPU(1 - c.ID())
			if o, n := other.Now(), c.Now(); o < n || (o == n && other.ID() < c.ID()) {
				t.Errorf("arrival %d folded on core %d at clock %d while core %d stood at %d", seq, c.ID(), n, other.ID(), o)
			}
			folders = append(folders, c.ID())
			c.Tick(100_000)
		})
	}
	s.Run(m, ncores, 1000)
	if len(folders) != arrivals {
		t.Fatalf("folded %d arrivals, want %d", len(folders), arrivals)
	}
	for i := 1; i < arrivals; i++ {
		if folders[i] == folders[i-1] {
			t.Fatalf("folds %d and %d both landed on core %d: %v", i-1, i, folders[i], folders)
		}
	}
}

// mustPanic runs fn and returns the value it panicked with, failing the
// test if it returned normally.
func mustPanic(t *testing.T, fn func()) (v any) {
	t.Helper()
	defer func() {
		if v = recover(); v == nil {
			t.Fatalf("no panic")
		}
	}()
	fn()
	return nil
}

// TestSchedPinOutOfRange: a proc pinned past the machine must be refused
// by name whether it is spawned before Run or from inside it. (Only the
// first was checked; a mid-run SpawnAt got past and died on a bare
// index-out-of-range in the idle-wake path.)
func TestSchedPinOutOfRange(t *testing.T) {
	const want = "hw: proc pinned to core 5 but Run has only 2 cores"
	noop := func(*Ctx) {}
	spawners := map[string]func(s *Sched){
		"before Run": func(s *Sched) { s.Spawn(5, noop) },
		"from an arrival": func(s *Sched) {
			s.Arrive(100, func(c *CPU, seq uint64) { s.SpawnAt(5, c.Now(), noop) })
		},
		"from a proc": func(s *Sched) {
			s.Spawn(0, func(tc *Ctx) { s.SpawnAt(5, tc.CPU().Now(), noop) })
		},
	}
	for name, spawn := range spawners {
		s := NewSched(0)
		spawn(s)
		if got := mustPanic(t, func() { s.Run(NewMachine(TestConfig(2)), 2, 0) }); got != want {
			t.Errorf("%s: panic %q, want %q", name, got, want)
		}
	}
}

// TestSchedDeadlockPanics: the two ways a workload can wedge the schedule
// are reported by name, in Run's caller.
func TestSchedDeadlockPanics(t *testing.T) {
	t.Run("barrier that cannot fill", func(t *testing.T) {
		s := NewSched(0)
		bar := NewBarrier(3) // only two procs ever arrive
		for id := 0; id < 2; id++ {
			s.Spawn(id, func(tc *Ctx) { tc.Wait(bar) })
		}
		got := mustPanic(t, func() { s.Run(NewMachine(TestConfig(2)), 2, 0) })
		if want := "hw: deterministic schedule deadlock: no runnable core"; got != want {
			t.Errorf("panic %q, want %q", got, want)
		}
	})
	t.Run("park with no waker", func(t *testing.T) {
		s := NewSched(0)
		s.Spawn(0, func(tc *Ctx) { tc.Park() })
		s.Spawn(1, func(tc *Ctx) { tc.CPU().Tick(100) })
		got := mustPanic(t, func() { s.Run(NewMachine(TestConfig(2)), 2, 0) })
		if want := "hw: scheduler deadlock: procs parked with no runnable waker"; got != want {
			t.Errorf("panic %q, want %q", got, want)
		}
	})
}

// TestSchedBodyPanic: a body's panic reaches a recover around Run with its
// value, and the coroutines of the procs it left suspended mid-body —
// yielded, parked, at a barrier — are gone when Run has unwound. (Only
// growth counts as a leak: the previous test's runner goroutine may still
// be exiting when the first count is taken.)
func TestSchedBodyPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSched(0)
	bar := NewBarrier(2)
	s.Spawn(0, func(tc *Ctx) {
		for {
			tc.CPU().Tick(100)
			tc.Yield()
		}
	})
	s.Spawn(1, func(tc *Ctx) { tc.Park() })
	s.Spawn(2, func(tc *Ctx) { tc.Wait(bar) })
	s.Spawn(3, func(tc *Ctx) {
		tc.CPU().Tick(1000)
		tc.Yield()
		panic("boom")
	})
	if got := mustPanic(t, func() { s.Run(NewMachine(TestConfig(4)), 4, 0) }); got != "boom" {
		t.Errorf("panic %q, want %q", got, "boom")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before Run, %d after it panicked", before, after)
	}
}

// TestSchedCarrierReuse: coroutines are per proc alive at once, not per
// proc — 20 migratable procs on 4 cores run lowest-seq first, so few are
// ever mid-body together — and none outlives Run.
func TestSchedCarrierReuse(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSched(0)
	alive, aliveHigh := 0, 0
	for i := 0; i < 20; i++ {
		s.Spawn(-1, func(tc *Ctx) {
			if alive++; alive > aliveHigh {
				aliveHigh = alive
			}
			for k := 0; k < 5; k++ {
				tc.CPU().Tick(100)
				tc.Yield()
			}
			alive--
		})
	}
	s.Run(NewMachine(TestConfig(4)), 4, 0)
	carriers := 0
	for on := s.free; on != nil; on = on.next {
		carriers++
	}
	if carriers == 0 || carriers > aliveHigh {
		t.Errorf("%d carriers created for at most %d procs alive at once", carriers, aliveHigh)
	}
	if aliveHigh >= 20 {
		t.Errorf("all %d procs were alive at once: the scenario no longer tests reuse", aliveHigh)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before Run, %d after", before, after)
	}
}

// TestSchedYieldAllocs: once every proc is on its coroutine a round of
// yields — each of 8 cores dispatching, resuming and requeueing its proc —
// allocates nothing.
func TestSchedYieldAllocs(t *testing.T) {
	const ncores = 8
	s := NewSched(0)
	done := false
	var allocs float64
	s.Spawn(0, func(tc *Ctx) {
		tc.Yield() // every other proc has started
		allocs = testing.AllocsPerRun(100, func() {
			tc.CPU().Tick(100)
			tc.Yield()
		})
		done = true
	})
	for id := 1; id < ncores; id++ {
		s.Spawn(id, func(tc *Ctx) {
			for !done {
				tc.CPU().Tick(100)
				tc.Yield()
			}
		})
	}
	s.Run(NewMachine(TestConfig(ncores)), ncores, 0)
	if allocs != 0 {
		t.Errorf("a steady-state yield round allocates %.1f times, want 0", allocs)
	}
}

// spawnExitAllocs is the heap allocations per proc of spawning 1000 short
// migratable procs and running them to completion on 4 cores.
func spawnExitAllocs() float64 {
	const nprocs = 1000
	m := NewMachine(TestConfig(4))
	body := func(tc *Ctx) {
		tc.CPU().Tick(100)
		tc.Yield()
	}
	return testing.AllocsPerRun(5, func() {
		s := NewSched(0)
		for i := 0; i < nprocs; i++ {
			s.Spawn(-1, body)
		}
		s.Run(m, 4, 0)
	}) / nprocs
}

// TestSchedSpawnExitAllocs: a short-lived proc costs its Proc and a share
// of the procs slice's growth, not a coroutine. The goroutine-and-two-
// channels proc this scheduler replaced measured 4.04 allocations per proc
// on this test; the loop measures 1.03.
func TestSchedSpawnExitAllocs(t *testing.T) {
	if got := spawnExitAllocs(); got > 1.5 {
		t.Errorf("%.2f allocations per short-lived proc, want <= 1.5 (4.04 with a goroutine per proc)", got)
	}
}
