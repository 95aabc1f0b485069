package hw

import (
	"fmt"
	"testing"
	"testing/quick"
)

func testMachine(t *testing.T, ncores int) *Machine {
	t.Helper()
	return NewMachine(TestConfig(ncores))
}

func TestCoreSetBasics(t *testing.T) {
	var s CoreSet
	if !s.Empty() || s.Count() != 0 {
		t.Fatalf("zero CoreSet not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(MaxCores - 1)
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	for _, id := range []int{0, 63, 64, MaxCores - 1} {
		if !s.Has(id) {
			t.Errorf("Has(%d) = false", id)
		}
	}
	if s.Has(1) || s.Has(65) {
		t.Errorf("Has reported absent member")
	}
	s.Remove(63)
	if s.Has(63) || s.Count() != 3 {
		t.Errorf("Remove failed: %v", s.String())
	}
	var got []int
	s.ForEach(func(id int) { got = append(got, id) })
	want := []int{0, 64, MaxCores - 1}
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
	if s.String() != fmt.Sprintf("{0,64,%d}", MaxCores-1) {
		t.Errorf("String = %q", s.String())
	}
}

func TestCoreSetUnion(t *testing.T) {
	var a, b CoreSet
	a.Add(1)
	b.Add(100)
	b.Add(1)
	a.Union(b)
	if a.Count() != 2 || !a.Has(100) {
		t.Errorf("Union = %v", a.String())
	}
}

func TestCoreSetQuick(t *testing.T) {
	// Property: a CoreSet agrees with a map-based set model.
	f := func(ids []uint8) bool {
		var s CoreSet
		model := map[int]bool{}
		for i, raw := range ids {
			id := int(raw) % MaxCores
			if i%3 == 2 {
				s.Remove(id)
				delete(model, id)
			} else {
				s.Add(id)
				model[id] = true
			}
		}
		if s.Count() != len(model) {
			return false
		}
		for id := range model {
			if !s.Has(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLineLocalHitAfterFirstTouch(t *testing.T) {
	m := testMachine(t, 2)
	c := m.CPU(0)
	var l Line
	c.Read(&l)
	if c.stats.ColdMisses != 1 || c.stats.Transfers != 0 {
		t.Fatalf("cold read: cold=%d transfers=%d, want 1, 0", c.stats.ColdMisses, c.stats.Transfers)
	}
	c.Read(&l)
	c.Read(&l)
	if c.stats.ColdMisses != 1 || c.stats.LocalHits != 2 {
		t.Fatalf("warm reads should hit: cold=%d hits=%d", c.stats.ColdMisses, c.stats.LocalHits)
	}
	c.Write(&l) // sole holder: silent upgrade
	c.Write(&l)
	if c.stats.Transfers != 0 || c.stats.LocalHits != 4 {
		t.Fatalf("exclusive writes should hit: transfers=%d hits=%d", c.stats.Transfers, c.stats.LocalHits)
	}
	// A second core's read then our write is a real transfer each way.
	c2 := m.CPU(1)
	c2.Read(&l)
	c.Write(&l)
	if c2.stats.Transfers != 1 || c.stats.Transfers != 1 {
		t.Fatalf("sharing transfers: c2=%d c=%d", c2.stats.Transfers, c.stats.Transfers)
	}
}

func TestLineWriteInvalidatesSharers(t *testing.T) {
	m := testMachine(t, 2)
	c0, c1 := m.CPU(0), m.CPU(1)
	var l Line
	c0.Read(&l)
	c1.Read(&l)
	c0.Write(&l) // invalidates c1
	c1.Read(&l)  // must transfer again
	if c1.stats.Transfers != 2 {
		t.Fatalf("c1 transfers = %d, want 2", c1.stats.Transfers)
	}
}

func TestLineCrossSocketCost(t *testing.T) {
	cfg := TestConfig(20)
	m := NewMachine(cfg)
	near, far := m.CPU(1), m.CPU(15) // sockets 0 and 1
	var l Line
	owner := m.CPU(0)
	owner.Write(&l)

	t0 := near.Now()
	near.Read(&l)
	if got := near.Now() - t0; got < cfg.SameSocketXfer {
		t.Errorf("same-socket read cost %d < %d", got, cfg.SameSocketXfer)
	}
	if near.stats.CrossSocket != 0 {
		t.Errorf("same-socket read counted as cross-socket")
	}

	owner.Write(&l)
	t1 := far.Now()
	far.Read(&l)
	if got := far.Now() - t1; got < cfg.CrossSocketXfer {
		t.Errorf("cross-socket read cost %d < %d", got, cfg.CrossSocketXfer)
	}
	if far.stats.CrossSocket != 1 {
		t.Errorf("cross-socket transfer not counted")
	}
}

func TestLineHomeSerialization(t *testing.T) {
	// Transfers of the same line must queue in virtual time: N cores each
	// writing once should see the last finisher's clock >= N * cost, in
	// whatever order they write.
	cfg := TestConfig(8)
	for seed := range Seeds(16) {
		m := NewMachine(cfg)
		var l Line
		RunGang(m, 8, seed, func(c *CPU, _ *Gang) { c.Write(&l) })
		if got := m.MaxClock(); got < 8*cfg.SameSocketXfer {
			t.Errorf("seed %d: hot line did not serialize: max clock %d < %d", seed, got, 8*cfg.SameSocketXfer)
		}
	}
}

func TestTickAndDeliverAt(t *testing.T) {
	m := testMachine(t, 2)
	c := m.CPU(0)
	c.Tick(100)
	if c.Now() != 100 {
		t.Fatalf("Now = %d", c.Now())
	}
	// A message stamped in the past folds immediately.
	c.DeliverAt(80, 50)
	if c.Now() != 150 {
		t.Fatalf("Now after due delivery = %d, want 150", c.Now())
	}
	// Each message folds exactly once.
	if c.Now() != 150 {
		t.Fatalf("message folded twice")
	}
	// A message stamped in the future is invisible until the clock
	// crosses its stamp...
	c.DeliverAt(1000, 50)
	if c.Now() != 150 {
		t.Fatalf("future message folded early: %d", c.Now())
	}
	// ...and a Tick across the stamp preempts at the stamp: local work
	// runs to 1000, the 50-cycle handler runs, the rest follows.
	c.Tick(900)
	if c.Now() != 1100 {
		t.Fatalf("Tick across stamp = %d, want 1100", c.Now())
	}
}

// TestMailboxFoldAtStamp is the regression test for the latent
// ChargeRemote-vs-advanceTo ordering bug the mailbox replaces: a
// line-transfer advanceTo could jump the clock past pending remote charges
// and then fold them on top, double-counting wait time. Mailbox semantics:
// the cost folds at max(clock, stamp), so handler time that overlaps a wait
// is absorbed by the wait — never stacked on top of a later advance.
func TestMailboxFoldAtStamp(t *testing.T) {
	m := testMachine(t, 2)
	c := m.CPU(0)
	c.Tick(1000)
	c.DeliverAt(5000, 1000)
	// The wait to 10000 covers the 5000..6000 handler window entirely.
	c.AdvanceTo(10000)
	if c.Now() != 10000 {
		t.Fatalf("absorbed handler: Now = %d, want 10000 (not 11000)", c.Now())
	}

	// A handler that starts inside the wait but finishes after it pushes
	// the clock only to its own end, not wait+cost.
	c.DeliverAt(10500, 1000)
	c.AdvanceTo(11000)
	if c.Now() != 11500 {
		t.Fatalf("tail handler: Now = %d, want 11500", c.Now())
	}

	// A message stamped beyond the advance target stays queued.
	c.DeliverAt(20000, 1000)
	c.AdvanceTo(12000)
	if c.Now() != 12000 {
		t.Fatalf("future message folded by advance: Now = %d, want 12000", c.Now())
	}
	c.AdvanceTo(20000)
	if c.Now() != 21000 {
		t.Fatalf("due message after advance: Now = %d, want 21000", c.Now())
	}
}

// TestMailboxStampOrder: messages fold in stamp order regardless of
// enqueue order, and folding one message can make the next one due.
func TestMailboxStampOrder(t *testing.T) {
	m := testMachine(t, 2)
	c := m.CPU(0)
	c.DeliverAt(3000, 500)
	c.DeliverAt(1000, 500)
	c.DeliverAt(2000, 500)
	c.AdvanceTo(1000)
	// 1000 -> 1500; stamps 2000 and 3000 are still in the future.
	if c.Now() != 1500 {
		t.Fatalf("first fold: Now = %d, want 1500", c.Now())
	}
	c.Tick(400) // to 1900, still before 2000
	if c.Now() != 1900 {
		t.Fatalf("Now = %d, want 1900", c.Now())
	}
	c.Tick(200) // crosses 2000: 100 local, 500 handler, 100 local => 2600
	if c.Now() != 2600 {
		t.Fatalf("second fold: Now = %d, want 2600", c.Now())
	}
	// Now() alone never advances past a future stamp.
	if depth := len(c.mbox) - c.mboxHead; depth != 1 || c.mboxNext != 3000 {
		t.Fatalf("queued = %d, head stamp %d; want 1, 3000", depth, c.mboxNext)
	}
	c.Tick(400) // to 3000, handler runs => 3500
	if c.Now() != 3500 {
		t.Fatalf("third fold: Now = %d, want 3500", c.Now())
	}
	if ts := m.TotalStats(); ts.IPIMboxMax != 3 {
		t.Errorf("IPIMboxMax = %d, want 3", ts.IPIMboxMax)
	}
}

// TestMailboxCascade: folding a due message advances the clock, which can
// make a later-stamped message due in the same drain.
func TestMailboxCascade(t *testing.T) {
	m := testMachine(t, 2)
	c := m.CPU(0)
	c.DeliverAt(100, 500)
	c.DeliverAt(400, 500)
	c.AdvanceTo(100)
	// 100 -> 600 (first handler), stamp 400 <= 600 -> 1100.
	if c.Now() != 1100 {
		t.Fatalf("cascade: Now = %d, want 1100", c.Now())
	}

	// The same cascading mailbox, folded by Now on one CPU and by AdvanceTo
	// at its pre-fold clock on the other: the fold is one rule either way.
	// The last message is not yet due and stays.
	m = testMachine(t, 2)
	byNow, byAdvance := m.CPU(0), m.CPU(1)
	for _, d := range []*CPU{byNow, byAdvance} {
		d.AdvanceTo(2000)
		d.DeliverAt(1900, 500)
		d.DeliverAt(2300, 500)
		d.DeliverAt(9000, 1)
	}
	byNow.Now()
	byAdvance.AdvanceTo(2000)
	// 2000 -> 2500 (stamp 1900 already due), stamp 2300 <= 2500 -> 3000.
	for _, d := range []*CPU{byNow, byAdvance} {
		if left := len(d.mbox) - d.mboxHead; d.clock != 3000 || d.Stats().IPIMboxMax != 3 || left != 1 {
			t.Errorf("core %d: clock %d, IPIMboxMax %d, %d left; want 3000, 3, 1",
				d.ID(), d.clock, d.Stats().IPIMboxMax, left)
		}
	}
}

func TestLockSerializesVirtualTime(t *testing.T) {
	const cs = 1000
	for seed := range Seeds(16) {
		m := testMachine(t, 4)
		var lk Lock
		RunGang(m, 4, seed, func(c *CPU, _ *Gang) {
			c.Acquire(&lk)
			c.Tick(cs)
			c.Release(&lk)
		})
		if got := m.MaxClock(); got < 4*cs {
			t.Errorf("seed %d: lock did not serialize critical sections: %d < %d", seed, got, 4*cs)
		}
	}
}

// TestLocksExclude holds Lock, RWLock and the bit lock to mutual exclusion
// on the explorer: each critical section touches a line, a preemption
// point, between checking and leaving the count of cores inside it.
func TestLocksExclude(t *testing.T) {
	const ncores, iters = 4, 50
	for seed := range Seeds(32) {
		m := testMachine(t, ncores)
		var (
			lk         Lock
			rw         RWLock
			bit        uint64
			gate       Gate
			l          Line
			inLock     int
			inBit      int
			readers    int
			writers    int
			violations []string
		)
		check := func(ok bool, what string) {
			if !ok {
				violations = append(violations, what)
			}
		}
		RunGang(m, ncores, seed, func(c *CPU, _ *Gang) {
			for k := 0; k < iters; k++ {
				c.Acquire(&lk)
				inLock++
				c.Write(&l)
				check(inLock == 1, "Lock held twice")
				inLock--
				c.Release(&lk)

				c.AcquireBitIn(&bit, 1, &gate, CauseSlotWait)
				inBit++
				c.Read(&l)
				check(inBit == 1, "lock bit held twice")
				inBit--
				c.ReleaseBitIn(&bit, 1, &gate)

				if (k+c.ID())%3 == 0 {
					c.WLock(&rw)
					writers++
					c.Write(&l)
					check(writers == 1 && readers == 0, "RWLock written beside another holder")
					writers--
					c.WUnlock(&rw)
				} else {
					c.RLock(&rw)
					readers++
					c.Read(&l)
					check(writers == 0, "RWLock read beside a writer")
					readers--
					c.RUnlock(&rw)
				}
			}
		})
		if len(violations) > 0 {
			t.Fatalf("seed %d: %d violations, first: %s", seed, len(violations), violations[0])
		}
	}
}

func TestRWLockWriterWaitsForReaders(t *testing.T) {
	m := testMachine(t, 2)
	var lk RWLock
	r, w := m.CPU(0), m.CPU(1)
	r.RLock(&lk)
	r.Tick(5000)
	r.RUnlock(&lk)
	w.WLock(&lk)
	if w.Now() < 5000 {
		t.Errorf("writer did not wait for reader CS: %d", w.Now())
	}
	w.WUnlock(&lk)
}

func TestRWLockReadersPayLineWrite(t *testing.T) {
	// The essential Linux-collapse behaviour: read acquisitions from many
	// cores each transfer the lock cache line.
	for seed := range Seeds(16) {
		m := testMachine(t, 8)
		var lk RWLock
		RunGang(m, 8, seed, func(c *CPU, _ *Gang) {
			c.RLock(&lk)
			c.RUnlock(&lk)
		})
		if tr := m.TotalStats().Transfers; tr < 7 {
			t.Errorf("seed %d: reader lock-word transfers = %d, want >= 7 (first touch is cold)", seed, tr)
		}
	}
}

func TestPackedBitLock(t *testing.T) {
	m := testMachine(t, 2)
	c := m.CPU(0)
	var word uint64
	var gates [2]Gate
	const bit0, bit1 = uint64(1) << 0, uint64(1) << 7
	c.AcquireBitIn(&word, bit0, &gates[0], CauseSlotWait)
	// A different bit of the same word stays independently lockable.
	c.AcquireBitIn(&word, bit1, &gates[1], CauseSlotWait)
	if word != bit0|bit1 {
		t.Fatalf("word = %#x with both bits held, want %#x", word, bit0|bit1)
	}
	c.ReleaseBitIn(&word, bit1, &gates[1])
	c.Tick(777)
	c.ReleaseBitIn(&word, bit0, &gates[0])
	c2 := m.CPU(1)
	c2.AcquireBitIn(&word, bit0, &gates[0], CauseSlotWait)
	if c2.Now() < 777 {
		t.Errorf("bit did not serialize virtual time: %d", c2.Now())
	}
	c2.ReleaseBitIn(&word, bit0, &gates[0])
	if word != 0 {
		t.Errorf("released word = %#x, want 0", word)
	}
}

func TestSendIPIs(t *testing.T) {
	cfg := TestConfig(4)
	m := NewMachine(cfg)
	sender := m.CPU(0)
	var targets CoreSet
	targets.Add(0) // must be excluded
	targets.Add(1)
	targets.Add(2)
	var handled []int
	n := sender.SendIPIs(targets, func(t *CPU) { handled = append(handled, t.ID()) })
	if n != 2 {
		t.Fatalf("SendIPIs n = %d, want 2", n)
	}
	if len(handled) != 2 {
		t.Fatalf("handler ran %d times", len(handled))
	}
	if sender.stats.IPIsSent != 2 {
		t.Errorf("IPIsSent = %d", sender.stats.IPIsSent)
	}
	if m.CPU(1).Stats().IPIsReceived() != 1 {
		t.Errorf("target 1 IPIsReceived = %d", m.CPU(1).Stats().IPIsReceived())
	}
	// The charge is stamped with its virtual arrival time: invisible
	// until the target's clock crosses the stamp, then folded on top.
	if m.CPU(1).Now() != 0 {
		t.Errorf("target clock charged before stamp: %d", m.CPU(1).Now())
	}
	stamp1 := cfg.IPIBase + cfg.IPIPerTarget // core 1 is the first target
	m.CPU(1).AdvanceTo(stamp1)
	if got, want := m.CPU(1).Now(), stamp1+cfg.IPIHandler; got != want {
		t.Errorf("target clock after crossing stamp = %d, want %d", got, want)
	}
	want := cfg.IPIBase + 2*cfg.IPIPerTarget + 2*cfg.IPIAckWait
	if sender.Now() < want {
		t.Errorf("sender cost %d < %d", sender.Now(), want)
	}
}

// TestSendIPIsCrossSocket: delivery and ack are two-tier — a target on
// another socket costs the Remote variants, and the split is counted.
func TestSendIPIsCrossSocket(t *testing.T) {
	cfg := TestConfig(24) // sockets of 10: cores 0-9, 10-19, 20-23
	m := NewMachine(cfg)
	sender := m.CPU(0)
	var targets CoreSet
	targets.Add(1)  // same socket
	targets.Add(10) // socket 1
	targets.Add(20) // socket 2
	n := sender.SendIPIs(targets, func(*CPU) {})
	if n != 3 {
		t.Fatalf("SendIPIs n = %d, want 3", n)
	}
	want := cfg.IPIBase + cfg.IPIPerTarget + 2*cfg.IPIPerTargetRemote +
		cfg.IPIAckWait + 2*cfg.IPIAckWaitRemote
	if sender.Now() != want {
		t.Errorf("sender cost %d, want %d", sender.Now(), want)
	}
	if sender.stats.IPIsRemote != 2 {
		t.Errorf("IPIsRemote = %d, want 2", sender.stats.IPIsRemote)
	}
	if sender.stats.IPIsSent != 3 {
		t.Errorf("IPIsSent = %d, want 3", sender.stats.IPIsSent)
	}
}

// TestBroadcastShootdownCost pins the headline number the NUMA model
// exists for: a full broadcast on the paper's 80-core, 8-socket machine
// costs on the order of 500k cycles (§5.3 measures ~500,000).
func TestBroadcastShootdownCost(t *testing.T) {
	cfg := DefaultConfig(80)
	m := NewMachine(cfg)
	sender := m.CPU(0)
	var targets CoreSet
	for i := 0; i < 80; i++ {
		targets.Add(i)
	}
	sender.SendIPIs(targets, func(*CPU) {})
	// 9 local + 70 remote targets.
	if got := sender.Now(); got < 300_000 || got > 700_000 {
		t.Errorf("80-core broadcast cost %d cycles, want ~500k (paper §5.3)", got)
	}
}

func TestSendIPIsEmpty(t *testing.T) {
	m := testMachine(t, 2)
	c := m.CPU(0)
	var only CoreSet
	only.Add(0)
	if n := c.SendIPIs(only, func(*CPU) { t.Fatal("handler ran") }); n != 0 {
		t.Fatalf("self-only shootdown interrupted %d cores", n)
	}
	if c.Now() != 0 {
		t.Errorf("self-only shootdown cost cycles: %d", c.Now())
	}
}

func TestMachineAccounting(t *testing.T) {
	m := testMachine(t, 3)
	m.CPU(0).Tick(10)
	m.CPU(2).Tick(30)
	if m.MaxClock() != 30 {
		t.Errorf("MaxClock = %d", m.MaxClock())
	}
	var l Line
	m.CPU(0).Write(&l)
	m.CPU(1).Write(&l)
	ts := m.TotalStats()
	if ts.Transfers != 1 || ts.ColdMisses != 1 {
		t.Errorf("TotalStats: transfers=%d cold=%d", ts.Transfers, ts.ColdMisses)
	}
	m.ResetStats()
	if m.TotalStats().Transfers != 0 {
		t.Errorf("ResetStats did not clear")
	}
}
