package hw

import "testing"

// runPinned runs body as one proc pinned to each of ncores cores of a fresh
// machine, on the deterministic schedule, and returns the machine.
func runPinned(ncores int, body func(tc *Ctx)) *Machine {
	m := NewMachine(TestConfig(ncores))
	s := NewSched(0)
	for id := 0; id < ncores; id++ {
		s.Spawn(id, body)
	}
	s.Run(m, ncores, 0)
	return m
}

func TestBarrierAlignsClocks(t *testing.T) {
	bar := NewBarrier(4)
	runPinned(4, func(tc *Ctx) {
		c := tc.CPU()
		c.Tick(uint64(1000 * (c.ID() + 1)))
		tc.Wait(bar)
		if c.Now() != 4000 {
			t.Errorf("core %d clock %d after barrier, want 4000", c.ID(), c.Now())
		}
	})
}

// TestRunGangDetBarrier: on the deterministic schedule every member leaves
// the barrier at the latest arrival, and the released members resume in
// core-ID order.
func TestRunGangDetBarrier(t *testing.T) {
	const ncores = 4
	bar := NewBarrier(ncores)
	var order []int
	var after [ncores]uint64
	runPinned(ncores, func(tc *Ctx) {
		c := tc.CPU()
		c.Tick(uint64(1000 * (ncores - c.ID()))) // core 0 arrives last
		tc.Yield()
		tc.Wait(bar)
		order = append(order, c.ID())
		after[c.ID()] = c.Now()
	})
	for id := 0; id < ncores; id++ {
		if order[id] != id {
			t.Fatalf("resume order %v, want core-ID order", order)
		}
		if after[id] != 1000*ncores {
			t.Errorf("core %d left the barrier at %d, want %d", id, after[id], 1000*ncores)
		}
	}
}

func TestBarrierSequentialGenerations(t *testing.T) {
	bar := NewBarrier(2)
	m := runPinned(2, func(tc *Ctx) {
		for k := 0; k < 50; k++ {
			tc.CPU().Tick(uint64(100 * (tc.CPU().ID() + 1)))
			tc.Wait(bar)
		}
	})
	for id := 0; id < 2; id++ {
		if got := m.CPU(id).Now(); got != 50*200 {
			t.Errorf("core %d clock %d after 50 rounds, want %d", id, got, 50*200)
		}
	}
}

// TestBarrierWithGang: members that yield between waits still leave at the
// slowest member's clock.
func TestBarrierWithGang(t *testing.T) {
	bar := NewBarrier(3)
	runPinned(3, func(tc *Ctx) {
		c := tc.CPU()
		for k := 0; k < 20; k++ {
			c.Tick(uint64(50 * (c.ID() + 1)))
			tc.Yield()
		}
		tc.Wait(bar)
		if c.Now() != 20*150 {
			t.Errorf("core %d clock %d after the barrier, want the slowest member's %d", c.ID(), c.Now(), 20*150)
		}
	})
}

func TestBarrierGenerationsDoNotBleed(t *testing.T) {
	// A waiter of phase k must align to k's latest arrival, not to the
	// arrivals at phase k+1 that cores resumed before it already made.
	bar := NewBarrier(3)
	var bad [3]uint64
	runPinned(3, func(tc *Ctx) {
		c := tc.CPU()
		for k := 1; k <= 30; k++ {
			c.Tick(uint64(100 * (c.ID() + 1)))
			tc.Wait(bar)
			// After round k, the aligned clock is exactly
			// k * 300 (the slowest member's total).
			if want := uint64(k * 300); c.Now() != want && bad[c.ID()] == 0 {
				bad[c.ID()] = c.Now()
			}
		}
	})
	for id, v := range bad {
		if v != 0 {
			t.Errorf("core %d misaligned: clock %d", id, v)
		}
	}
}
