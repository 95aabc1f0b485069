package hw

import (
	"runtime"
	"slices"
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

// TestSchedParkWake: a Wake of a proc that is not parked changes nothing —
// the proc's next Park still blocks — and a consumer that checks what it
// waits for before every Park loses no hand-off, whether the producer's
// Wake finds it parked or not.
func TestSchedParkWake(t *testing.T) {
	m := NewMachine(TestConfig(2))
	s := NewSched(0)
	var order []string
	posted, taken := 0, 0
	consumer := s.Spawn(0, func(tc *Ctx) {
		tc.CPU().Tick(5000) // the first hand-off finds the consumer ready, not parked
		tc.Yield()
		for taken < 2 {
			for posted == taken {
				order = append(order, "consumer-park")
				tc.Park()
			}
			taken++
			order = append(order, "consumer-take")
		}
	})
	s.Spawn(1, func(tc *Ctx) {
		for k := 0; k < 2; k++ {
			posted++
			order = append(order, "producer-post")
			ready := s.ready
			s.Wake(consumer)
			if k == 0 {
				s.Wake(consumer)
				if s.ready != ready || consumer.parked {
					t.Errorf("Wakes of a proc that was not parked changed the ready backlog %d -> %d", ready, s.ready)
				}
			}
			tc.CPU().Tick(10_000)
			tc.Yield()
		}
	})
	s.Run(m, 2, 1000)
	// One park: the Wakes that found the consumer ready did not make its
	// Park return at once.
	want := []string{"producer-post", "consumer-take", "consumer-park", "producer-post", "consumer-take"}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestSchedQueueCapDefersArrivals: the admission cap counts the whole
// ready backlog — every core's queue — and a due arrival must wait until
// the backlog drains below the cap. (The cap once counted only a shared
// queue of procs any core could run, which made it dead for fleets whose
// procs all name their cores.)
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
	var late int
	for _, st := range stamps {
		st := st
		s.Arrive(st, func(c *CPU, seq uint64) {
			if c.Now() < st {
				late++ // fold before the stamp: clock never advanced
			}
			foldCores[c.ID()] = true
			s.Spawn(c.ID(), func(tc *Ctx) {
				tc.CPU().Tick(2000)
			})
		})
	}
	s.Run(m, ncores, 1000)
	if late != 0 {
		t.Errorf("%d arrivals folded below their stamp", late)
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

// TestSchedPinOutOfRange: a proc pinned past the machine, or to a negative
// core, must be refused by a panic that names the pin, whether it is spawned
// before Run or from inside it. (A pin past the machine was once checked
// only before Run; a mid-run SpawnAt got past and died on a bare
// index-out-of-range in the idle-wake path.)
func TestSchedPinOutOfRange(t *testing.T) {
	const past = "hw: proc pinned to core 5 but Run has only 2 cores"
	const negative = "hw: proc pinned to core -1: every proc names its core"
	noop := func(*Ctx) {}
	for _, tc := range []struct {
		name  string
		spawn func(s *Sched)
		want  string
	}{
		{"before Run", func(s *Sched) { s.Spawn(5, noop) }, past},
		{"from an arrival", func(s *Sched) {
			s.Arrive(100, func(c *CPU, seq uint64) { s.SpawnAt(5, c.Now(), noop) })
		}, past},
		{"from a proc", func(s *Sched) {
			s.Spawn(0, func(tc *Ctx) { s.SpawnAt(5, tc.CPU().Now(), noop) })
		}, past},
		{"negative before Run", func(s *Sched) { s.Spawn(-1, noop) }, negative},
		{"negative step proc before Run", func(s *Sched) {
			s.SpawnStep(-1, func(*Ctx) Step { return StepDone })
		}, negative},
		{"negative from a proc", func(s *Sched) {
			s.Spawn(0, func(tc *Ctx) { s.SpawnAt(-1, tc.CPU().Now(), noop) })
		}, negative},
	} {
		got := mustPanic(t, func() {
			s := NewSched(0)
			tc.spawn(s)
			s.Run(NewMachine(TestConfig(2)), 2, 0)
		})
		if got != tc.want {
			t.Errorf("%s: panic %q, want %q", tc.name, got, tc.want)
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
// proc — 20 procs, 5 to each of 4 cores, and a core runs its lowest-seq
// proc first, so few are ever mid-body together — and none outlives Run.
func TestSchedCarrierReuse(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSched(0)
	alive, aliveHigh := 0, 0
	for i := 0; i < 20; i++ {
		s.Spawn(i%4, func(tc *Ctx) {
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
// procs, 250 to a core, and running them to completion on 4 cores.
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
			s.Spawn(i%4, body)
		}
		s.Run(m, 4, 0)
	}) / nprocs
}

// TestSchedSpawnExitAllocs: a short-lived proc costs its Proc and a share
// of the run's few coroutines and tables, not a coroutine of its own. The
// goroutine-and-two-channels proc this scheduler replaced measured 4.04
// allocations per proc on this test; the loop measures 1.07.
func TestSchedSpawnExitAllocs(t *testing.T) {
	if got := spawnExitAllocs(); got > 1.5 {
		t.Errorf("%.2f allocations per short-lived proc, want <= 1.5 (4.04 with a goroutine per proc)", got)
	}
}
