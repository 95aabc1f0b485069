package hw

import (
	"math/rand"
	"testing"
)

// refMailbox is the reference fold: a slice kept sorted by insertion,
// popped by moving the rest down, and folded on every clock step whenever
// anything is queued. The CPU's mailbox must leave every clock and counter
// exactly where it does.
type refMailbox struct {
	clock    uint64
	cycles   Cycles
	mbox     []ipiMsg
	depthMax uint64
	recv     uint64
}

func (r *refMailbox) deliver(stamp, cost uint64) {
	r.mbox = append(r.mbox, ipiMsg{stamp, cost})
	for i := len(r.mbox) - 1; i > 0 && r.mbox[i-1].stamp > r.mbox[i].stamp; i-- {
		r.mbox[i-1], r.mbox[i] = r.mbox[i], r.mbox[i-1]
	}
	r.depthMax = max(r.depthMax, uint64(len(r.mbox)))
	r.recv++
}

func (r *refMailbox) tick(k Cause, cycles uint64) {
	r.cycles[k] += cycles
	i := 0
	for ; i < len(r.mbox); i++ {
		m := r.mbox[i]
		if m.stamp <= r.clock {
			r.clock += m.cost
			r.cycles[CauseMailbox] += m.cost
			continue
		}
		run := m.stamp - r.clock
		if run > cycles {
			break
		}
		cycles -= run
		r.clock = m.stamp + m.cost
		r.cycles[CauseMailbox] += m.cost
	}
	r.mbox = append(r.mbox[:0], r.mbox[i:]...)
	r.clock += cycles
}

func (r *refMailbox) advance(k Cause, t uint64) {
	i := 0
	for ; i < len(r.mbox); i++ {
		m := r.mbox[i]
		lim := r.clock
		if t > lim {
			lim = t
		}
		if m.stamp > lim {
			break
		}
		if m.stamp > r.clock {
			r.cycles[k] += m.stamp - r.clock
			r.clock = m.stamp
		}
		r.clock += m.cost
		r.cycles[CauseMailbox] += m.cost
	}
	r.mbox = append(r.mbox[:0], r.mbox[i:]...)
	if t > r.clock {
		r.cycles[k] += t - r.clock
		r.clock = t
	}
}

// TestMailboxMatchesSortedSliceFold drives one receiver with randomized
// deliveries from several senders — each sender's stamps never decrease,
// but the senders interleave, lag behind the receiver's clock, and repeat
// one another's stamps — between Tick, TickAs, AdvanceTo, AdvanceToAs and
// Now, and holds the receiver to refMailbox after every step: clock, every
// cause's cycles, the queue, its head stamp, IPIMboxMax and the receive
// count.
func TestMailboxMatchesSortedSliceFold(t *testing.T) {
	const senders = 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := testMachine(t, 2).CPU(0)
		ref := &refMailbox{}
		var sent [senders]uint64 // each sender's last stamp
		var last uint64          // the last stamp delivered by anyone
		for step := 0; step < 3000; step++ {
			var what string
			switch op := rng.Intn(10); {
			case op < 4:
				j := rng.Intn(senders)
				switch rng.Intn(4) {
				case 0: // repeat another sender's stamp, if it is not behind
					sent[j] = max(sent[j], last)
				case 1: // catch up with the receiver, then some
					sent[j] = max(sent[j], ref.clock+uint64(rng.Intn(3000)))
				default: // sender j steps up to 500·4^j: the fast ones run ahead
					sent[j] += uint64(rng.Intn(500 << (2 * j)))
				}
				cost := uint64(rng.Intn(1500))
				what = "DeliverAt"
				c.DeliverAt(sent[j], cost)
				ref.deliver(sent[j], cost)
				last = sent[j]
			case op < 6:
				n := uint64(rng.Intn(4000))
				what = "Tick"
				c.Tick(n)
				ref.tick(CauseOp, n)
			case op < 7:
				k, n := Cause(rng.Intn(int(NCause))), uint64(rng.Intn(4000))
				what = "TickAs"
				c.TickAs(k, n)
				ref.tick(k, n)
			case op < 9:
				k, to := Cause(rng.Intn(int(NCause))), ref.clock+uint64(rng.Intn(5000))
				if rng.Intn(4) == 0 {
					to -= min(to, uint64(rng.Intn(5000))) // at or behind the clock
				}
				if k == CauseHandoff {
					what = "AdvanceTo"
					c.AdvanceTo(to)
				} else {
					what = "AdvanceToAs"
					c.AdvanceToAs(k, to)
				}
				ref.advance(k, to)
			default:
				what = "Now"
				ref.advance(CauseMailbox, ref.clock)
				if got := c.Now(); got != ref.clock {
					t.Fatalf("seed %d step %d: Now = %d, want %d", seed, step, got, ref.clock)
				}
			}
			head := ^uint64(0)
			if len(ref.mbox) > 0 {
				head = ref.mbox[0].stamp
			}
			switch {
			case c.clock != ref.clock:
				t.Fatalf("seed %d step %d (%s): clock %d, want %d", seed, step, what, c.clock, ref.clock)
			case c.cycles != ref.cycles:
				t.Fatalf("seed %d step %d (%s): cycles %v, want %v", seed, step, what, c.cycles, ref.cycles)
			case c.cycles.Total() != c.clock:
				t.Fatalf("seed %d step %d (%s): causes sum to %d, clock %d", seed, step, what, c.cycles.Total(), c.clock)
			case len(c.mbox)-c.mboxHead != len(ref.mbox) || c.mboxNext != head:
				t.Fatalf("seed %d step %d (%s): %d queued, head stamp %d; want %d, %d",
					seed, step, what, len(c.mbox)-c.mboxHead, c.mboxNext, len(ref.mbox), head)
			case c.stats.IPIMboxMax != ref.depthMax || c.stats.IPIsReceived() != ref.recv:
				t.Fatalf("seed %d step %d (%s): IPIMboxMax %d, received %d; want %d, %d",
					seed, step, what, c.stats.IPIMboxMax, c.stats.IPIsReceived(), ref.depthMax, ref.recv)
			}
		}
	}
}

// TestMailboxSteadyStateAllocatesNothing: once its array has grown to the
// deepest queue, a mailbox that is delivered to and folded, emptied or
// not, allocates nothing.
func TestMailboxSteadyStateAllocatesNothing(t *testing.T) {
	c := testMachine(t, 2).CPU(0)
	const n, gap = 64, 100
	// Each round queues n messages a round ahead and folds the n queued by
	// the round before, by Tick and AdvanceTo: n stay queued throughout.
	round := func() {
		base := c.Now()
		for i := uint64(1); i <= n; i++ {
			c.DeliverAt(base+(n+i)*gap, 10)
		}
		c.Tick(n / 2 * gap)
		c.AdvanceTo(base + n*gap)
	}
	// Each queues n messages and folds them all.
	drain := func() {
		base := c.Now()
		for i := uint64(1); i <= n; i++ {
			c.DeliverAt(base+i*gap, 10)
		}
		c.AdvanceTo(base + 2*n*gap)
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("deliver and fold, %d queued: %v allocs per round, want 0", n, allocs)
	}
	if allocs := testing.AllocsPerRun(100, drain); allocs != 0 {
		t.Errorf("deliver and drain: %v allocs per round, want 0", allocs)
	}
	if c.Stats().IPIMboxMax != 2*n {
		t.Errorf("IPIMboxMax = %d, want %d", c.Stats().IPIMboxMax, 2*n)
	}
	// AllocsPerRun rounds down, so hold the array itself: popped messages'
	// room is reused, not grown past.
	if cap(c.mbox) > 4*n {
		t.Errorf("mailbox array of %d messages for a queue of at most %d", cap(c.mbox), 2*n)
	}
}
