package hw

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestSchedTraceGolden pins the dispatch order itself. The figures prove
// the order only on the paths they happen to take; this scenario takes all
// of them on purpose — pinned and migratable procs, a context-switch cost,
// arrivals against a small admission cap (two folds are deferred), SpawnAt
// from an arrival handler, a Park that blocks and a Park that finds its
// wake already pending, a two-member barrier crossed twice while the other
// procs keep yielding, idle cores sleeping to a late arrival, and one line
// every body writes so the order shows up in the transfer counts. Every
// core's cycle meter must sum to its clock. The
// expected text in testdata/sched_trace.golden was produced by the
// scheduler this one replaced (per-core member goroutines passing a token,
// PR 14's tree) and regenerated once since, when a fold became a yield point
// (PR 22): every line up to and including the first fold stayed as it was —
// a schedule without arrivals does not move — and the core that folded
// arrival 6 now goes back through the pick instead of dispatching first. A
// scheduler change that moves one resume, one clock or one counter fails here.
//
// The steps variant spawns the scenario's yield-only pinned procs — the two
// barrier members and the short proc arrival 6 pins to core 3 — as step
// procs, and must leave the same trace: a step proc's yield is accounted as
// a coroutine's is.
func TestSchedTraceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/sched_trace.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, steps := range []bool{false, true} {
		name := map[bool]string{false: "coroutines", true: "steps"}[steps]
		t.Run(name, func(t *testing.T) {
			if got := schedTrace(t, steps); got != string(want) {
				t.Errorf("schedule trace differs from testdata/sched_trace.golden; got:\n%s", got)
			}
		})
	}
}

// schedTrace runs TestSchedTraceGolden's scenario, its yield-only pinned
// procs as step procs if steps is set, and returns the trace.
func schedTrace(t *testing.T, steps bool) string {
	const ncores = 4
	m := NewMachine(TestConfig(ncores))
	s := NewSched(4)
	s.SwitchCost = 700

	var out strings.Builder
	var l Line
	mark := func(tc *Ctx) {
		c := tc.CPU()
		fmt.Fprintf(&out, "resume core=%d proc=%d clock=%d\n", c.ID(), tc.p.seq, c.Now())
	}
	work := func(c *CPU, cycles uint64) {
		c.Write(&l)
		c.Tick(cycles)
	}

	// Procs 0 and 1: the barrier's two members, pinned to cores 0 and 1,
	// unequal rounds so each crossing has an early and a late arriver.
	bar := NewBarrier(2)
	for id := 0; id < 2; id++ {
		id := id
		if steps {
			round, k := 0, 0
			s.SpawnStep(id, func(tc *Ctx) Step {
				mark(tc)
				switch {
				case round == 2:
					work(tc.CPU(), 50)
					return StepDone
				case k < 3+2*id:
					work(tc.CPU(), uint64(400+150*id))
					k++
					return StepYield
				}
				round, k = round+1, 0
				return tc.StepWait(bar)
			})
			continue
		}
		s.Spawn(id, func(tc *Ctx) {
			mark(tc)
			for round := 0; round < 2; round++ {
				for k := 0; k < 3+2*id; k++ {
					work(tc.CPU(), uint64(400+150*id))
					tc.Yield()
					mark(tc)
				}
				tc.Wait(bar)
				mark(tc)
			}
			work(tc.CPU(), 50)
		})
	}

	// Proc 2: the consumer, pinned to core 2. Its first Park blocks until
	// proc 3 wakes it; that proc's second Wake finds it ready and arms the
	// pending flag, so the second Park returns without yielding.
	consumer := s.Spawn(2, func(tc *Ctx) {
		mark(tc)
		work(tc.CPU(), 100)
		tc.Park()
		mark(tc)
		work(tc.CPU(), 100)
		tc.Park()
		mark(tc)
		work(tc.CPU(), 100)
		tc.Yield()
		mark(tc)
	})

	// Procs 3-5: migratable, not barrier members, yielding throughout.
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(-1, func(tc *Ctx) {
			mark(tc)
			for k := 0; k < 8; k++ {
				work(tc.CPU(), uint64(300+50*i))
				if i == 0 && k == 4 {
					s.Wake(consumer)
					s.Wake(consumer)
				}
				tc.Yield()
				mark(tc)
			}
		})
	}

	short := func(n int) func(*Ctx) {
		return func(tc *Ctx) {
			mark(tc)
			for k := 0; k < n; k++ {
				work(tc.CPU(), 250)
				tc.Yield()
				mark(tc)
			}
		}
	}
	shortStep := func(n int) func(*Ctx) Step {
		k := 0
		return func(tc *Ctx) Step {
			mark(tc)
			if k == n {
				return StepDone
			}
			work(tc.CPU(), 250)
			k++
			return StepYield
		}
	}
	fold := func(c *CPU, seq uint64) {
		fmt.Fprintf(&out, "fold   core=%d seq=%d clock=%d deferred=%d\n", c.ID(), seq, c.Now(), s.DeferredArrivals())
	}
	// Arrivals 6 and 7 come due while the six initial procs hold the
	// backlog at the cap, so both folds are deferred; 6 then refills the
	// backlog (spawns bypass the cap) and holds 7 back a second time.
	s.Arrive(1500, func(c *CPU, seq uint64) {
		fold(c, seq)
		work(c, 200)
		for j := 0; j < 3; j++ {
			s.SpawnAt(-1, c.Now(), short(2))
		}
		if steps {
			s.SpawnStepAt(3, c.Now(), shortStep(3))
		} else {
			s.SpawnAt(3, c.Now(), short(3))
		}
	})
	s.Arrive(1600, func(c *CPU, seq uint64) {
		fold(c, seq)
		work(c, 200)
		s.SpawnAt(-1, c.Now(), short(1))
	})
	// Arrival 8 comes after everything else has finished: idle cores sleep
	// to its stamp instead of parking.
	s.Arrive(60_000, func(c *CPU, seq uint64) {
		fold(c, seq)
		s.SpawnAt(-1, c.Now(), short(1))
	})

	s.Run(m, ncores, 1000)

	for id := 0; id < ncores; id++ {
		fmt.Fprintf(&out, "final  core=%d clock=%d\n", id, m.CPU(id).Now())
	}
	fmt.Fprintf(&out, "stats  %+v\n", m.TotalStats())
	fmt.Fprintf(&out, "sched  dispatches=%d switches=%d deferred=%d runq_high=%d\n",
		s.Dispatches(), s.Switches(), s.DeferredArrivals(), s.RunQueueHighWater())

	for id := 0; id < ncores; id++ {
		c := m.CPU(id)
		if y := c.Cycles(); y.Total() != c.Elapsed() {
			t.Errorf("core %d: causes sum to %d cycles, clock advanced %d: %v", id, y.Total(), c.Elapsed(), y)
		}
	}
	if s.DeferredArrivals() == 0 {
		t.Errorf("no arrival was deferred: the scenario no longer reaches the admission cap")
	}
	return out.String()
}
