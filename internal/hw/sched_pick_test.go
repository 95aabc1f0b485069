package hw

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// scanPick is the pick the tree replaced, kept as its reference: the core
// in the given state with the lowest (clock, ID), or -1, by a pass over
// every core. tie reports whether another core in the state shares the
// winner's clock.
func scanPick(s *Sched, state int8) (next int, tie bool) {
	next = -1
	var best uint64
	for j := range s.cores {
		k := &s.cores[j]
		if k.state != state {
			continue
		}
		switch {
		case next == -1 || k.clock < best:
			next, best, tie = j, k.clock, false
		case k.clock == best:
			tie = true
		}
	}
	return next, tie
}

// pickCoverage counts the paths the random schedules reached, so the test
// fails if a change to its generator stops exercising one.
type pickCoverage struct {
	picks, ties, idle, deferred, releases, parks int
}

// randomSchedule spawns a seeded mix onto s: a barrier gang pinned to
// distinct cores, Park/Wake pairs, procs that yield, several to a core, and
// arrivals that spawn more, some late enough to find cores idle or
// sleeping. Work comes in multiples of 100 cycles so clocks often tie.
// check runs at every point a body or handler regains control.
func randomSchedule(s *Sched, rng *rand.Rand, ncores int, cov *pickCoverage, check func()) {
	work := func(c *CPU) { c.Tick(uint64(100 * (1 + rng.Intn(4)))) }
	pin := func() int { return rng.Intn(ncores) }
	yielder := func(n int) func(*Ctx) {
		return func(tc *Ctx) {
			check()
			for k := 0; k < n; k++ {
				work(tc.CPU())
				tc.Yield()
				check()
			}
		}
	}

	members := 1 + rng.Intn(min(ncores, 6))
	bar := NewBarrier(members)
	phases := 1 + rng.Intn(3)
	for _, id := range rng.Perm(ncores)[:members] {
		s.Spawn(id, func(tc *Ctx) {
			check()
			for ph := 0; ph < phases; ph++ {
				for k := rng.Intn(3); k > 0; k-- {
					work(tc.CPU())
					tc.Yield()
					check()
				}
				tc.Wait(bar)
				cov.releases++
				check()
			}
		})
	}

	for i := rng.Intn(3); i > 0; i-- {
		var ping, pong *Proc
		rounds, done := 1+rng.Intn(4), false
		ping = s.Spawn(pin(), func(tc *Ctx) {
			for k := 0; k < rounds; k++ {
				check()
				work(tc.CPU())
				s.Wake(pong)
				tc.Park()
				cov.parks++
			}
			done = true
			check()
			s.Wake(pong)
		})
		pong = s.Spawn(pin(), func(tc *Ctx) {
			for !done {
				check()
				work(tc.CPU())
				s.Wake(ping)
				tc.Park()
				cov.parks++
			}
		})
	}

	for i := rng.Intn(ncores + 2); i > 0; i-- {
		s.Spawn(pin(), yielder(rng.Intn(4)))
	}

	for i := rng.Intn(8); i > 0; i-- {
		stamp := uint64(100 * rng.Intn(60))
		if rng.Intn(4) == 0 {
			stamp += 50_000 // after the initial procs: cores are idle or sleeping
		}
		s.Arrive(stamp, func(c *CPU, seq uint64) {
			check()
			work(c)
			for j := 1 + rng.Intn(3); j > 0; j-- {
				s.SpawnAt(pin(), c.Now(), yielder(rng.Intn(3)))
				check()
			}
		})
	}
}

// TestSchedPickMatchesScan: the tree picks exactly what a scan of every
// core picks. Seeded random schedules (barriers, Park/Wake, procs sharing
// cores, arrivals deferred by the admission cap, idle wakes, retirement,
// equal clocks after a barrier release) run on 1, 3, 64, 80 and 128 cores,
// so padded trees are covered. The test drives Run's loop itself to compare
// the tree's root with scanPick before every pick, and bodies and handlers
// compare it wherever they regain control. The same schedule run by Run
// must leave every clock and counter as the test's loop did.
func TestSchedPickMatchesScan(t *testing.T) {
	const seeds = 40
	var cov pickCoverage
	for _, ncores := range []int{1, 3, 64, 80, 128} {
		for seed := int64(1); seed <= seeds; seed++ {
			queueCap := rand.New(rand.NewSource(seed)).Intn(ncores + 3)

			m := NewMachine(TestConfig(ncores))
			s := NewSched(queueCap)
			// Bodies run on their coroutines' goroutines, so a mismatch is
			// kept for the loop to fail on.
			var bad string
			where := "before the pick"
			check := func() {
				want, tie := scanPick(s, coreReady)
				if got := s.pick(); got != want && bad == "" {
					bad = fmt.Sprintf("%d cores, seed %d, %s: the tree picks core %d, the scan core %d", ncores, seed, where, got, want)
				}
				if tie {
					cov.ties++
				}
				if idle, _ := scanPick(s, coreIdle); idle >= 0 {
					cov.idle++
				}
			}
			randomSchedule(s, rand.New(rand.NewSource(seed)), ncores, &cov, func() {
				where = "in a body or handler"
				check()
				where = "before the pick"
			})
			s.start(m, ncores)
			for {
				check()
				if bad != "" {
					s.stop()
					t.Fatal(bad)
				}
				cov.picks++
				id := s.pick()
				if id < 0 {
					break
				}
				s.step(&s.cores[id])
			}
			s.stop()
			if s.remaining != 0 {
				t.Fatalf("%d cores, seed %d: the loop stopped with %d procs unfinished", ncores, seed, s.remaining)
			}
			cov.deferred += int(s.DeferredArrivals())

			ref := NewMachine(TestConfig(ncores))
			rs := NewSched(queueCap)
			randomSchedule(rs, rand.New(rand.NewSource(seed)), ncores, &pickCoverage{}, func() {})
			rs.Run(ref, ncores, 0)

			for id := 0; id < ncores; id++ {
				if got, want := m.CPU(id).Now(), ref.CPU(id).Now(); got != want {
					t.Fatalf("%d cores, seed %d: core %d ends at %d under the test's loop, %d under Run", ncores, seed, id, got, want)
				}
			}
			if s.Dispatches() != rs.Dispatches() || s.Switches() != rs.Switches() || s.DeferredArrivals() != rs.DeferredArrivals() {
				t.Fatalf("%d cores, seed %d: dispatches/switches/deferred %d/%d/%d under the test's loop, %d/%d/%d under Run",
					ncores, seed, s.Dispatches(), s.Switches(), s.DeferredArrivals(), rs.Dispatches(), rs.Switches(), rs.DeferredArrivals())
			}
		}
	}
	t.Logf("%+v", cov)
	if cov.ties == 0 || cov.idle == 0 || cov.deferred == 0 || cov.releases == 0 || cov.parks == 0 {
		t.Errorf("the random schedules missed a path: %+v", cov)
	}
}

// TestSchedClockOverflowPanics: a pick key packs the clock above the core
// ID, so a clock past the key's 57 bits must stop the run, not wrap into a
// wrong pick.
func TestSchedClockOverflowPanics(t *testing.T) {
	m := NewMachine(TestConfig(2))
	s := NewSched(0)
	s.Spawn(1, func(tc *Ctx) { tc.CPU().AdvanceTo(out >> idBits) })
	if v := mustPanic(t, func() { s.Run(m, 2, 0) }); !strings.Contains(fmt.Sprint(v), "overflows the pick's key") {
		t.Errorf("Run panicked with %v, want the key overflow", v)
	}
}
