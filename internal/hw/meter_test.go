package hw

import "testing"

// TestMeterChargesEachAdvance walks two cores through one advance of each
// kind — local work, think time, a cold fill, a hit, a queued transfer, a
// hand-off, a lock wait, a mailbox fold inside a tick, an interrupt round —
// and checks the cause each was charged, that the causes sum to each core's
// clock advance, and that ResetStats starts the meter over from the clock.
func TestMeterChargesEachAdvance(t *testing.T) {
	m := testMachine(t, 2)
	cfg := m.Config()
	c0, c1 := m.CPU(0), m.CPU(1)
	var l Line
	var lk Lock

	c0.Tick(100)
	c0.TickAs(CauseThink, 50)
	c0.Write(&l) // cold, served 150..350
	c0.Read(&l)  // hit
	c1.AdvanceTo(200)
	c1.Read(&l) // queues behind c0's fill until 350, then a transfer
	c0.Acquire(&lk)
	c0.Tick(1000)
	c0.Release(&lk) // the critical section ends at 1558
	c1.AdvanceTo(600)
	c1.Acquire(&lk) // arrived inside it: waits until 1558
	c1.Release(&lk)
	c0.DeliverAt(c0.Now()+5, 1000)
	c0.Tick(20) // the handler preempts it 5 cycles in
	var one CoreSet
	one.Add(1)
	c0.SendIPIs(one, func(*CPU) {})
	c1.AdvanceTo(c0.Now()) // past the handler's stamp

	want := [2]Cycles{}
	want[0][CauseOp] = 100 + 1000 + 20
	want[0][CauseThink] = 50
	want[0][CauseColdFill] = 2 * cfg.DRAMAccess // l, then the lock's line
	want[0][CauseLineHit] = 2 * cfg.LocalHit    // the read, the release's write
	want[0][CauseMailbox] = 1000
	want[0][CauseIPISend] = cfg.IPIBase + cfg.IPIPerTarget
	want[0][CauseIPIAck] = cfg.IPIAckWait
	want[1][CauseLineQueue] = 350 - 200
	want[1][CauseLineXfer] = 2 * cfg.SameSocketXfer // l, then the lock's line
	want[1][CauseLockWait] = 1558 - (600 + cfg.SameSocketXfer)
	want[1][CauseLineHit] = cfg.LocalHit // the release's write
	want[1][CauseMailbox] = cfg.IPIHandler
	want[1][CauseHandoff] = c1.Elapsed() - want[1].Total()
	for i, c := range []*CPU{c0, c1} {
		got := c.Cycles()
		if got != want[i] {
			t.Errorf("core %d charged %v, want %v", i, got, want[i])
		}
		if got.Total() != c.Elapsed() {
			t.Errorf("core %d: causes sum to %d, clock advanced %d", i, got.Total(), c.Elapsed())
		}
	}
	if h := want[1][CauseHandoff]; h < 200+(600-450) {
		t.Errorf("core 1's hand-offs came to %d cycles, want at least its two explicit ones", h)
	}

	m.ResetStats()
	c0.Tick(7)
	if got := c0.Cycles(); got.Total() != 7 || got[CauseOp] != 7 || c0.Elapsed() != 7 {
		t.Errorf("after ResetStats: charged %v over an advance of %d, want 7 cycles of op work", got, c0.Elapsed())
	}
}
