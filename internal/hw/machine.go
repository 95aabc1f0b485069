// Package hw simulates the hardware substrate the RadixVM paper measures on:
// an 80-core, 8-socket cache-coherent x86 machine.
//
// The paper's scalability results are entirely about cache-line movement:
// "any contended cache line can be a scalability risk because frequently
// written cache lines must be re-read by other cores, an operation that
// typically serializes at the cache line's home node" (§3). This package
// models exactly that. Each simulated core is driven by one goroutine at a
// time and owns a private virtual clock measured in cycles. Shared memory the VM
// system cares about is annotated with Line values; reading or writing a
// Line advances the toucher's clock by the modeled coherence cost, and
// transfers of the same line serialize against each other in virtual time
// (the home-node queue). Code that touches only core-local lines advances
// only its own clock and induces no cross-core interaction — which is the
// paper's definition of perfect scalability.
//
// Functional concurrency is real: the data structures built on top of hw use
// genuine atomics and locks, so races and orderings are exercised by the Go
// race detector. Only *time* is simulated, which is what lets a laptop sweep
// 1..80 virtual cores and reproduce the paper's curves.
package hw

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Config describes the simulated machine and its cost model. All costs are
// in cycles of the paper's 2.4 GHz clock.
type Config struct {
	NCores         int // total simulated cores
	CoresPerSocket int // cores per chip (paper: 10)

	// Coherence costs.
	LocalHit        uint64 // L1/L2 hit on an unshared or already-cached line
	SameSocketXfer  uint64 // line transfer between cores on one chip
	CrossSocketXfer uint64 // line transfer across the interconnect
	DRAMAccess      uint64 // local DRAM fill (cold miss)

	// Interrupt costs. The paper measures broadcast shootdowns at
	// ~500,000 cycles and observes that APIC IPI delivery is
	// "non-scalable": each additional target adds serialized cost at the
	// sender. Like line transfers, delivery is two-tier: targets on the
	// sender's socket cost IPIPerTarget/IPIAckWait, targets on another
	// socket cost the Remote variants.
	IPIBase            uint64 // fixed cost to initiate any shootdown
	IPIPerTarget       uint64 // serialized delivery cost, same-socket target
	IPIPerTargetRemote uint64 // serialized delivery cost, cross-socket target
	IPIHandler         uint64 // cost charged to each receiving core
	IPIAckWait         uint64 // sender-side ack wait, same-socket target
	IPIAckWaitRemote   uint64 // sender-side ack wait, cross-socket target

	// Page operations.
	PageZero uint64 // zeroing a 4 KB page (paper: ~64 L2 misses)

	// Refcache epoch length in cycles (paper: 10 ms at 2.4 GHz).
	EpochCycles uint64
}

// DefaultConfig returns a cost model shaped on the paper's 8×10-core Intel
// E7-8870 machine. Absolute values are approximations from published
// coherence latencies for that platform; the reproduction targets curve
// shapes, not absolute cycle counts.
func DefaultConfig(ncores int) Config {
	return Config{
		NCores:             ncores,
		CoresPerSocket:     10,
		LocalHit:           4,
		SameSocketXfer:     100,
		CrossSocketXfer:    300,
		DRAMAccess:         200,
		IPIBase:            2000,
		IPIPerTarget:       1500,
		IPIPerTargetRemote: 4500, // cross-socket fabric: 3x the on-chip cost
		IPIHandler:         1000,
		IPIAckWait:         500,
		IPIAckWaitRemote:   1500,
		PageZero:           64 * 40,    // 64 L2 misses (paper §5.3) at ~40 cycles each
		EpochCycles:        24_000_000, // 10 ms at 2.4 GHz
	}
}

// TestConfig returns a configuration with a short epoch, convenient for
// unit tests that need Refcache to reclaim quickly.
func TestConfig(ncores int) Config {
	c := DefaultConfig(ncores)
	c.EpochCycles = 10_000
	return c
}

// Machine is a simulated multicore machine. Create one per experiment with
// NewMachine; obtain per-core contexts with CPU.
type Machine struct {
	cfg  Config
	cpus []*CPU
}

// NewMachine builds a machine with cfg.NCores cores.
func NewMachine(cfg Config) *Machine {
	if cfg.NCores <= 0 || cfg.NCores > MaxCores {
		panic(fmt.Sprintf("hw: invalid core count %d", cfg.NCores))
	}
	if cfg.CoresPerSocket <= 0 {
		cfg.CoresPerSocket = 10
	}
	m := &Machine{cfg: cfg}
	m.cpus = make([]*CPU, cfg.NCores)
	for i := range m.cpus {
		m.cpus[i] = &CPU{id: i, m: m}
	}
	return m
}

// Config returns the machine's cost model.
func (m *Machine) Config() Config { return m.cfg }

// NCores returns the number of simulated cores.
func (m *Machine) NCores() int { return m.cfg.NCores }

// CPU returns the context for core id.
func (m *Machine) CPU(id int) *CPU { return m.cpus[id] }

// Socket returns the socket (chip) number of core id.
func (m *Machine) Socket(id int) int { return id / m.cfg.CoresPerSocket }

// MaxClock returns the largest virtual clock across all cores: the virtual
// wall-clock time of the experiment so far.
func (m *Machine) MaxClock() uint64 {
	var max uint64
	for _, c := range m.cpus {
		if now := c.Now(); now > max {
			max = now
		}
	}
	return max
}

// TotalStats sums the per-core statistics.
func (m *Machine) TotalStats() Stats {
	var t Stats
	for _, c := range m.cpus {
		t.add(&c.stats)
	}
	return t
}

// ResetStats zeroes all per-core statistics and cycle meters (clocks are
// preserved): each core's Cycles count from its clock now.
func (m *Machine) ResetStats() {
	for _, c := range m.cpus {
		c.stats = Stats{}
		c.cycles, c.base = Cycles{}, c.clock
	}
}

// Stats counts the events the paper's evaluation reports on. All fields are
// monotonic within one experiment. Per-core Stats are written only by the
// owning core's goroutine except the Recv fields, which use atomics.
type Stats struct {
	LocalHits      uint64 // line touches satisfied from the local cache
	ColdMisses     uint64 // first-touch DRAM fills (not coherence traffic)
	Transfers      uint64 // inter-core cache-line transfers (the contention metric)
	CrossSocket    uint64 // subset of Transfers that crossed sockets
	IPIsSent       uint64 // shootdown interrupts issued by this core
	IPIsRemote     uint64 // subset of IPIsSent that crossed a socket boundary
	ipisRecv       uint64 // accessed atomically (written by remote senders)
	IPIMboxMax     uint64 // high-water mark of queued mailbox messages (written by senders under mboxMu)
	Shootdowns     uint64 // munmap-triggered shootdown rounds
	PageFaults     uint64
	FillFaults     uint64 // faults that only filled a PTE (page existed)
	ProtFaults     uint64 // permission traps: denied accesses + rights re-fills after mprotect
	COWBreaks      uint64 // write faults that resolved a copy-on-write page
	Mmaps          uint64
	Munmaps        uint64
	Mprotects      uint64
	Forks          uint64 // address-space forks initiated by this core
	PagesZeroed    uint64
	RefcacheEvicts uint64 // delta-cache evictions due to hash collisions
}

// IPIsReceived returns the number of shootdown IPIs this core received.
func (s *Stats) IPIsReceived() uint64 { return atomic.LoadUint64(&s.ipisRecv) }

func (t *Stats) add(s *Stats) {
	t.LocalHits += s.LocalHits
	t.ColdMisses += s.ColdMisses
	t.Transfers += s.Transfers
	t.CrossSocket += s.CrossSocket
	t.IPIsSent += s.IPIsSent
	t.IPIsRemote += s.IPIsRemote
	t.ipisRecv += atomic.LoadUint64(&s.ipisRecv)
	if s.IPIMboxMax > t.IPIMboxMax {
		t.IPIMboxMax = s.IPIMboxMax
	}
	t.Shootdowns += s.Shootdowns
	t.PageFaults += s.PageFaults
	t.FillFaults += s.FillFaults
	t.ProtFaults += s.ProtFaults
	t.COWBreaks += s.COWBreaks
	t.Mmaps += s.Mmaps
	t.Munmaps += s.Munmaps
	t.Mprotects += s.Mprotects
	t.Forks += s.Forks
	t.PagesZeroed += s.PagesZeroed
	t.RefcacheEvicts += s.RefcacheEvicts
}

// ipiMsg is one timestamped remote charge: cost cycles of handler work that
// arrives at this core at virtual time stamp.
type ipiMsg struct {
	stamp uint64 // sender's virtual send time + modeled delivery latency
	cost  uint64 // handler cycles to fold into the receiver's clock
}

// CPU is the execution context of one simulated core. Exactly one goroutine
// may drive a CPU at a time (the "thread running on that core"); all methods
// except DeliverAt must be called only from that goroutine.
type CPU struct {
	id    int
	m     *Machine
	clock uint64 // virtual cycles; owned by the driving goroutine

	// The mailbox holds remote charges (IPI handler work executed by
	// proxy) stamped with their virtual arrival time. Senders enqueue
	// under mboxMu via DeliverAt; the owning goroutine drains due
	// messages in stamp order at every Now/Tick/advanceTo boundary,
	// folding each cost at max(clock, stamp) — so where remote cycles
	// land in virtual time is a function of the op stream's virtual-time
	// order, never of goroutine scheduling. mboxLen mirrors len(mbox) so
	// the empty-mailbox fast path is a single atomic load (a plain int32
	// with atomic.LoadInt32 rather than an atomic.Int32: one method call
	// less keeps Tick and TickAs within the inlining budget).
	mboxLen int32 // accessed atomically
	mboxMu  sync.Mutex
	mbox    []ipiMsg // sorted by stamp, ascending; guarded by mboxMu

	stats Stats

	// The cycle meter (meter.go): cycles charged by cause since ResetStats,
	// and the clock at that reset. Owned by the driving goroutine.
	cycles Cycles
	base   uint64
}

// ID returns the core number.
func (c *CPU) ID() int { return c.id }

// Machine returns the machine this core belongs to.
func (c *CPU) Machine() *Machine { return c.m }

// Socket returns this core's socket number.
func (c *CPU) Socket() int { return c.m.Socket(c.id) }

// Stats returns this core's statistics counters for inspection.
func (c *CPU) Stats() *Stats { return &c.stats }

// Now returns the core's current virtual time, folding in any mailbox
// messages whose stamp has already been reached. The fast path is a single
// atomic load: the mailbox is almost always empty (messages only arrive
// during shootdowns), and heavier synchronization on every clock read showed
// up as ~9% of flat CPU in the radix hot paths.
func (c *CPU) Now() uint64 {
	if atomic.LoadInt32(&c.mboxLen) != 0 {
		c.advanceSlow(CauseMailbox, c.clock)
	}
	return c.clock
}

// Tick advances the core's virtual clock by cycles of op work: TickAs with
// CauseOp, spelled out so that both stay within the inlining budget.
func (c *CPU) Tick(cycles uint64) {
	c.cycles[CauseOp] += cycles
	if atomic.LoadInt32(&c.mboxLen) != 0 {
		c.tickSlow(cycles)
		return
	}
	c.clock += cycles
}

// TickAs advances the core's virtual clock by cycles of local work, charged
// to cause k.
func (c *CPU) TickAs(k Cause, cycles uint64) {
	c.cycles[k] += cycles
	if atomic.LoadInt32(&c.mboxLen) != 0 {
		c.tickSlow(cycles)
		return
	}
	c.clock += cycles
}

// tickSlow interleaves mailbox deliveries with cycles of local work: a
// message stamped inside the window preempts at its stamp, runs its handler,
// and the remaining local work continues after it. The work's own cause has
// been charged all of cycles already; the handlers are charged here.
func (c *CPU) tickSlow(cycles uint64) {
	c.mboxMu.Lock()
	i := 0
	for ; i < len(c.mbox); i++ {
		m := c.mbox[i]
		if m.stamp <= c.clock {
			c.clock += m.cost
			c.cycles[CauseMailbox] += m.cost
			continue
		}
		run := m.stamp - c.clock
		if run > cycles {
			break
		}
		cycles -= run
		c.clock = m.stamp + m.cost
		c.cycles[CauseMailbox] += m.cost
	}
	c.popMail(i)
	c.mboxMu.Unlock()
	c.clock += cycles
}

// AdvanceTo moves the clock forward to at least t, charged as a hand-off.
// Workloads use it to model cross-core causality (e.g. a consumer cannot
// observe a region before its producer handed it off).
func (c *CPU) AdvanceTo(t uint64) { c.advanceTo(CauseHandoff, t) }

// AdvanceToAs moves the clock forward to at least t, charging the wait to
// cause k.
func (c *CPU) AdvanceToAs(k Cause, t uint64) { c.advanceTo(k, t) }

// advanceTo moves the clock forward to at least t, charging the wait to k
// (a line transfer waiting for the line's home-node queue, a lock waiting
// out its holder).
func (c *CPU) advanceTo(k Cause, t uint64) {
	if atomic.LoadInt32(&c.mboxLen) != 0 {
		c.advanceSlow(k, t)
		return
	}
	if t > c.clock {
		c.cycles[k] += t - c.clock
		c.clock = t
	}
}

// advanceSlow folds every message stamped at or before max(clock, t) at its
// own arrival time — max(clock, stamp) + cost — before maxing with t. Folding
// a cost advances the clock, which can make the next message due in turn, so
// the loop re-tests against the moving clock; at t = clock (Now) it folds
// exactly the messages the clock has already reached.
// Handler time that overlaps a wait is absorbed by the wait, never stacked
// on top of it; the clock only exceeds t if the folds themselves pushed it
// past. (The old pending-accumulator model got this wrong: an advanceTo
// could jump past pending charges and then fold them on top, double-
// counting wait time relative to virtual causality.)
//
// The clock's moves toward t are charged to k, the folded costs to
// CauseMailbox.
func (c *CPU) advanceSlow(k Cause, t uint64) {
	c.mboxMu.Lock()
	i := 0
	for ; i < len(c.mbox); i++ {
		m := c.mbox[i]
		lim := c.clock
		if t > lim {
			lim = t
		}
		if m.stamp > lim {
			break
		}
		if m.stamp > c.clock {
			c.cycles[k] += m.stamp - c.clock
			c.clock = m.stamp
		}
		c.clock += m.cost
		c.cycles[CauseMailbox] += m.cost
	}
	c.popMail(i)
	c.mboxMu.Unlock()
	if t > c.clock {
		c.cycles[k] += t - c.clock
		c.clock = t
	}
}

// popMail removes the first n (already folded) messages. Caller holds
// mboxMu.
func (c *CPU) popMail(n int) {
	if n == 0 {
		return
	}
	c.mbox = append(c.mbox[:0], c.mbox[n:]...)
	atomic.StoreInt32(&c.mboxLen, int32(len(c.mbox)))
}

// DeliverAt enqueues cost cycles of remote work (e.g. a shootdown IPI
// handler) arriving at this core at virtual time stamp. Safe to call from
// any goroutine; the owning goroutine folds it into the clock when its own
// virtual time crosses the stamp. Messages with equal stamps commute under
// the fold-at-max rule, so insertion order between them does not matter.
func (c *CPU) DeliverAt(stamp, cost uint64) {
	c.mboxMu.Lock()
	c.mbox = append(c.mbox, ipiMsg{stamp, cost})
	for i := len(c.mbox) - 1; i > 0 && c.mbox[i-1].stamp > c.mbox[i].stamp; i-- {
		c.mbox[i-1], c.mbox[i] = c.mbox[i], c.mbox[i-1]
	}
	n := int32(len(c.mbox))
	atomic.StoreInt32(&c.mboxLen, n)
	if d := uint64(n); d > c.stats.IPIMboxMax {
		c.stats.IPIMboxMax = d
	}
	c.mboxMu.Unlock()
}
