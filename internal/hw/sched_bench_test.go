package hw

import (
	"fmt"
	"testing"
)

// The scheduler's host cost, in the repo's own benchmark harness so CI can
// print it. Each reports the host ns per scheduler event as ns/op: one
// b.N iteration is one yield, one dispatch, or one proc's whole life.

// BenchmarkSchedYield: one proc pinned to each core, Tick+Yield — the
// fixed-gang shape every figure workload runs in — at 8, 64 and 128 cores.
// One op is one yield: pick the lowest-clock core, resume its proc, requeue
// it. The pick reads a tree over the cores, so the per-yield cost should
// grow with log(cores), not with cores.
func BenchmarkSchedYield(b *testing.B) {
	for _, ncores := range []int{8, 64, 128} {
		b.Run(fmt.Sprintf("cores=%d", ncores), func(b *testing.B) {
			rounds := b.N/ncores + 1
			m := NewMachine(DefaultConfig(ncores))
			s := NewSched(0)
			for i := 0; i < ncores; i++ {
				s.Spawn(i, func(tc *Ctx) {
					for k := 0; k < rounds; k++ {
						tc.CPU().Tick(100)
						tc.Yield()
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Run(m, ncores, 0)
		})
	}
}

// BenchmarkSchedStep: BenchmarkSchedYield's shape with step procs, which
// the loop calls instead of resuming: the same pick, dispatch and requeue
// per op, without the coroutine switch.
func BenchmarkSchedStep(b *testing.B) {
	for _, ncores := range []int{8, 64, 128} {
		b.Run(fmt.Sprintf("cores=%d", ncores), func(b *testing.B) {
			rounds := b.N/ncores + 1
			m := NewMachine(DefaultConfig(ncores))
			s := NewSched(0)
			for i := 0; i < ncores; i++ {
				k := 0
				s.SpawnStep(i, func(tc *Ctx) Step {
					if k == rounds {
						return StepDone
					}
					k++
					tc.CPU().Tick(100)
					return StepYield
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.Run(m, ncores, 0)
		})
	}
}

// BenchmarkSchedSwitch: 64 pairs of procs on 64 cores with a switch cost,
// a pair's two procs pinned to one core. Procs that only yield would run to
// completion one after another, lowest seq first; these hand a turn back
// and forth through Wake and Park instead. A Park always yields, so every
// dispatch finds the other proc than the core ran last and charges the
// switch. One op is one dispatch, one turn.
func BenchmarkSchedSwitch(b *testing.B) {
	m, s := pingPongPairs(b.N/(2*switchPairs) + 1)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(m, switchCores, 0)
	b.StopTimer()
	if s.Dispatches() < uint64(b.N) {
		b.Fatalf("b.N=%d: %d dispatches: one op is no longer one dispatch", b.N, s.Dispatches())
	}
}

const switchCores, switchPairs = 64, 64

// pingPongPairs builds BenchmarkSchedSwitch's machine and scheduler: 64
// pairs of procs, pair i's two on core i, that wake each other and park,
// rounds times each: two dispatches a round, all but the first on a core
// switching procs (128 064 switches in 128 128 dispatches at 1 000 rounds).
func pingPongPairs(rounds int) (*Machine, *Sched) {
	m := NewMachine(DefaultConfig(switchCores))
	s := NewSched(0)
	s.SwitchCost = 3000
	for i := 0; i < switchPairs; i++ {
		var ping, pong *Proc
		done := false
		ping = s.Spawn(i, func(tc *Ctx) {
			for k := 0; k < rounds; k++ {
				tc.CPU().Tick(100)
				s.Wake(pong)
				tc.Park()
			}
			done = true
			s.Wake(pong)
		})
		pong = s.Spawn(i, func(tc *Ctx) {
			for !done {
				tc.CPU().Tick(100)
				s.Wake(ping)
				tc.Park()
			}
		})
	}
	return m, s
}

// TestSchedSwitchShape: BenchmarkSchedSwitch is only worth its name if its
// dispatches mostly find another proc than the core ran last. The schedule
// is deterministic, so at a fixed size the counts are constants: 128 064
// switches in 128 128 dispatches.
func TestSchedSwitchShape(t *testing.T) {
	const rounds = 1000
	m, s := pingPongPairs(rounds)
	s.Run(m, switchCores, 0)
	if s.Dispatches() < rounds*switchPairs || 2*s.Switches() < s.Dispatches() {
		t.Fatalf("%d switches in %d dispatches over %d rounds: the benchmark no longer measures switching", s.Switches(), s.Dispatches(), rounds)
	}
	t.Logf("%d switches in %d dispatches", s.Switches(), s.Dispatches())
}

// BenchmarkSchedSpawnExit: short-lived procs arriving one at a time, each
// spawned by an arrival, dispatched, yielding once and exiting — the
// fleet's churn, pinned round-robin by arrival. One op is one proc, spawn to
// exit.
func BenchmarkSchedSpawnExit(b *testing.B) {
	const ncores = 4
	m := NewMachine(DefaultConfig(ncores))
	s := NewSched(0)
	body := func(tc *Ctx) {
		tc.CPU().Tick(100)
		tc.Yield()
	}
	for i := 0; i < b.N; i++ {
		s.Arrive(uint64(i)*200, func(c *CPU, seq uint64) { s.SpawnAt(int(seq%ncores), c.Now(), body) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(m, ncores, 0)
}
