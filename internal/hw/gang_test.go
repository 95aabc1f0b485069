package hw

import "testing"

func TestGangForcesInterleaving(t *testing.T) {
	// Two cores alternately writing one line must both observe transfers:
	// Sync hands the schedule to the core whose clock is lowest, so neither
	// runs its whole loop before the other starts.
	m := NewMachine(TestConfig(2))
	var l Line
	RunGangDet(m, 2, 0, func(c *CPU, g *Gang) {
		for k := 0; k < 300; k++ {
			c.Write(&l)
			c.Tick(100)
			g.Sync(c)
		}
	})
	// With interleaving, the vast majority of the 600 writes transfer.
	if tr := m.TotalStats().Transfers; tr < 300 {
		t.Errorf("transfers = %d, want >= 300 (interleaving not enforced)", tr)
	}
}

func TestGangLeaveUnblocksOthers(t *testing.T) {
	// A member finishing early must not stall the rest.
	m := NewMachine(TestConfig(3))
	RunGangDet(m, 3, 0, func(c *CPU, g *Gang) {
		iters := 50
		if c.ID() == 0 {
			iters = 1 // finishes almost immediately
		}
		for k := 0; k < iters; k++ {
			c.Tick(1000)
			g.Sync(c)
		}
	})
	if m.CPU(2).Now() < 50*1000 {
		t.Errorf("core 2 did not complete: clock %d", m.CPU(2).Now())
	}
}
