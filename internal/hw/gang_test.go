package hw

import "testing"

// maxSkew gang-schedules every core of a machine built from cfg on one
// shared line — contention stays live the whole run — and returns, per
// core, the furthest it was seen ahead of the slowest member right after
// a Sync returned.
func maxSkew(cfg Config, quantum uint64, iters int) []uint64 {
	m := NewMachine(cfg)
	skews := make([]uint64, cfg.NCores)
	var l Line
	RunGang(m, cfg.NCores, quantum, func(c *CPU, g *Gang) {
		for k := 0; k < iters; k++ {
			c.Write(&l)
			c.Tick(100)
			g.Sync(c)
			g.mu.Lock()
			lo := g.minLocked()
			g.mu.Unlock()
			// The caller is a member, so lo is at most its clock.
			if d := c.Now() - lo; d > skews[c.ID()] {
				skews[c.ID()] = d
			}
		}
	})
	return skews
}

func TestGangBoundsSkew(t *testing.T) {
	const quantum = 1000
	// After Sync returns, a contended core is at most quantum + one
	// iteration's worth of cycles ahead (a write can cost up to a
	// cross-socket transfer).
	for id, s := range maxSkew(TestConfig(4), quantum, 200) {
		if s > quantum+1000 {
			t.Errorf("core %d virtual skew %d exceeded quantum bound", id, s)
		}
	}
}

func TestGangForcesInterleaving(t *testing.T) {
	// Two cores alternately writing one line must both observe transfers
	// when gang-scheduled (without a gang the scheduler may serialize
	// their whole loops).
	m := NewMachine(TestConfig(2))
	var l Line
	RunGang(m, 2, 50, func(c *CPU, g *Gang) {
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

// TestGangTreeCrossSocketSkew holds the same bound with the members spread
// over three sockets, where an iteration costs up to a cross-socket
// transfer plus home-node serialization. (The Tree in this name and the
// next is the retired socket-tree barrier; the names stay because the
// tier-1 floor list tracks them.)
func TestGangTreeCrossSocketSkew(t *testing.T) {
	const quantum = 1000
	cfg := TestConfig(6)
	cfg.CoresPerSocket = 2 // sockets {0,1} {2,3} {4,5}
	for id, s := range maxSkew(cfg, quantum, 300) {
		if s > quantum+1500 {
			t.Errorf("core %d virtual skew %d exceeded the cross-socket quantum bound", id, s)
		}
	}
}

// TestGangTreeJoinLeaveChurn stresses membership churn under the race
// detector: members repeatedly leave and rejoin mid-run, with staggered
// lifetimes, while shared-line traffic keeps the minimum moving. The
// assertions are liveness (the run completes) and that long-lived members
// reached their full virtual span.
func TestGangTreeJoinLeaveChurn(t *testing.T) {
	const ncores = 12
	cfg := TestConfig(ncores)
	cfg.CoresPerSocket = 3 // four sockets
	m := NewMachine(cfg)
	var l Line
	RunGang(m, ncores, 400, func(c *CPU, g *Gang) {
		iters := 200 + 40*c.ID() // staggered exits
		for k := 0; k < iters; k++ {
			if (k+c.ID())%3 == 0 {
				c.Write(&l)
			}
			c.Tick(100)
			g.Sync(c)
			if (k+7*c.ID())%17 == 0 {
				g.Leave(c) // leave + rejoin mid-sync
				g.Join(c)
			}
		}
	})
	for id := 0; id < ncores; id++ {
		if min := uint64(200+40*id) * 100; m.CPU(id).Now() < min {
			t.Errorf("core %d stalled: clock %d, want >= %d", id, m.CPU(id).Now(), min)
		}
	}
}

func TestGangLeaveUnblocksOthers(t *testing.T) {
	// A member finishing early must not stall the rest.
	m := NewMachine(TestConfig(3))
	RunGang(m, 3, 100, func(c *CPU, g *Gang) {
		iters := 50
		if c.ID() == 0 {
			iters = 1 // finishes (and Leaves) almost immediately
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
