// Package hw simulates the hardware substrate the RadixVM paper measures on:
// an 80-core, 8-socket cache-coherent x86 machine.
//
// The paper's scalability results are entirely about cache-line movement:
// "any contended cache line can be a scalability risk because frequently
// written cache lines must be re-read by other cores, an operation that
// typically serializes at the cache line's home node" (§3). This package
// models exactly that. Each simulated core is driven by one proc of the
// schedule at a time and owns a private virtual clock measured in cycles.
// Shared memory the VM system cares about is annotated with Line values;
// reading or writing a Line advances the toucher's clock by the modeled
// coherence cost, and transfers of the same line serialize against each
// other in virtual time (the home-node queue). Code that touches only core-local lines advances
// only its own clock and induces no cross-core interaction — which is the
// paper's definition of perfect scalability.
//
// The cores are entries of one event loop (Sched), which runs their procs
// one at a time, each on the core it is pinned to: as coroutines it resumes,
// or, for a body that yields only between operations, as step functions it
// calls (a call costs a fraction of a coroutine switch's iter.Pull round
// trip). So one body runs at a time, no wakeup can fall between a body's
// check and its Park, and the simulated machine needs no real locks; *time* is what is
// simulated, which is what lets a laptop sweep 1..80 virtual cores and
// reproduce the paper's curves. The loop's pick keeps virtual time: every
// figure and every test that asserts a clock runs on it (Sched, and
// RunGangDet on it). RunGang runs the cores on the seeded explorer instead,
// which interleaves their operations at preemption points — every line
// touch and lock acquire — so a test holds the functional code to many
// interleavings, each replayed exactly from its seed; the clocks it leaves
// measure nothing.
package hw

import "fmt"

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
	cfg     Config
	cpus    []*CPU
	socket  []int     // socket[id] is core id's socket, so no touch divides
	sockets []CoreSet // sockets[s] holds the cores of socket s
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
	m.socket = make([]int, cfg.NCores)
	for i := range m.cpus {
		m.cpus[i] = &CPU{id: i, m: m, mboxNext: ^uint64(0)}
		m.socket[i] = i / cfg.CoresPerSocket
	}
	m.sockets = make([]CoreSet, m.socket[cfg.NCores-1]+1)
	for i, s := range m.socket {
		m.sockets[s].Add(i)
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
func (m *Machine) Socket(id int) int { return m.socket[id] }

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
// monotonic within one experiment. Per-core Stats are written by the
// owning core's proc, except ipisRecv and IPIMboxMax, which senders write
// (DeliverAt).
type Stats struct {
	LocalHits      uint64 // line touches satisfied from the local cache
	ColdMisses     uint64 // first-touch DRAM fills (not coherence traffic)
	Transfers      uint64 // inter-core cache-line transfers (the contention metric)
	CrossSocket    uint64 // subset of Transfers that crossed sockets
	IPIsSent       uint64 // shootdown interrupts issued by this core
	IPIsRemote     uint64 // subset of IPIsSent that crossed a socket boundary
	ipisRecv       uint64 // written by senders
	IPIMboxMax     uint64 // high-water mark of queued mailbox messages (written by senders)
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
func (s *Stats) IPIsReceived() uint64 { return s.ipisRecv }

func (t *Stats) add(s *Stats) {
	t.LocalHits += s.LocalHits
	t.ColdMisses += s.ColdMisses
	t.Transfers += s.Transfers
	t.CrossSocket += s.CrossSocket
	t.IPIsSent += s.IPIsSent
	t.IPIsRemote += s.IPIsRemote
	t.ipisRecv += s.ipisRecv
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

// CPU is the execution context of one simulated core. One proc drives a
// CPU at a time (the "thread running on that core"); all methods but
// DeliverAt act for that proc.
type CPU struct {
	id int
	m  *Machine

	// The mailbox holds remote charges (IPI handler work executed by
	// proxy) stamped with their virtual arrival time. Senders enqueue
	// via DeliverAt; the owning core drains due messages in stamp order
	// at every Now/Tick/advanceTo boundary, folding each cost at
	// max(clock, stamp) — so where remote cycles land in virtual time is
	// a function of the op stream's virtual-time order, never of the
	// order the schedule ran the senders in. mboxNext is the stamp of the
	// earliest queued message, ^0 when none is queued, so each fast path
	// is one load and a compare against the clock: a broadcast baseline
	// keeps thousands of messages queued for the future.
	//
	// A CPU is 64-byte aligned (its size class is a multiple of 64), so
	// id, m, the explorer and the mailbox fill the first cache line and the
	// stats a sender writes, ipisRecv and IPIMboxMax, end the second.
	mboxNext uint64
	x        *explorer // the explorer running the core, nil off it (Preempt)
	mbox     []ipiMsg  // mbox[mboxHead:] is queued, sorted by stamp
	mboxHead int

	stats Stats

	clock uint64 // virtual cycles

	// The cycle meter (meter.go): cycles charged by cause since ResetStats,
	// and the clock at that reset.
	cycles Cycles
	base   uint64
}

// ID returns the core number.
func (c *CPU) ID() int { return c.id }

// Machine returns the machine this core belongs to.
func (c *CPU) Machine() *Machine { return c.m }

// Socket returns this core's socket number.
func (c *CPU) Socket() int { return c.m.socket[c.id] }

// Stats returns this core's statistics counters for inspection.
func (c *CPU) Stats() *Stats { return &c.stats }

// Now returns the core's current virtual time, folding in any mailbox
// messages whose stamp has already been reached. The fast path is one
// compare: a message is rarely due (messages only arrive during
// shootdowns).
func (c *CPU) Now() uint64 {
	if c.mboxNext <= c.clock {
		c.advanceSlow(CauseMailbox, c.clock)
	}
	return c.clock
}

// Tick advances the core's virtual clock by cycles of op work: TickAs with
// CauseOp, spelled out so that both stay within the inlining budget.
func (c *CPU) Tick(cycles uint64) {
	c.cycles[CauseOp] += cycles
	c.clock += cycles
	if c.clock >= c.mboxNext {
		c.tickSlow(cycles)
	}
}

// TickAs advances the core's virtual clock by cycles of local work, charged
// to cause k.
func (c *CPU) TickAs(k Cause, cycles uint64) {
	c.cycles[k] += cycles
	c.clock += cycles
	if c.clock >= c.mboxNext {
		c.tickSlow(cycles)
	}
}

// tickSlow interleaves mailbox deliveries with cycles of local work that
// Tick has already added to the clock, and which it takes back first: a
// message stamped inside the window preempts at its stamp, runs its
// handler, and the remaining local work continues after it. The work's own
// cause has been charged all of cycles already; the handlers are charged
// here.
func (c *CPU) tickSlow(cycles uint64) {
	c.clock -= cycles
	i := c.mboxHead
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
	t = max(t, c.clock)
	if t >= c.mboxNext {
		c.advanceSlow(k, t)
		return
	}
	c.cycles[k] += t - c.clock
	c.clock = t
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
	i := c.mboxHead
	for ; i < len(c.mbox); i++ {
		m := c.mbox[i]
		if m.stamp > max(c.clock, t) {
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
	if t > c.clock {
		c.cycles[k] += t - c.clock
		c.clock = t
	}
}

// popMail drops the folded messages before mbox[head] and recomputes the
// head stamp. The queue moves down to the front of its array once it is no
// longer than what was popped since the last move, so a pop costs O(1)
// amortized and the array, once grown to the deepest queue, is reused.
func (c *CPU) popMail(head int) {
	if 2*head >= len(c.mbox) {
		n := copy(c.mbox, c.mbox[head:])
		c.mbox, head = c.mbox[:n], 0
	}
	c.mboxHead = head
	next := ^uint64(0)
	if head < len(c.mbox) {
		next = c.mbox[head].stamp
	}
	c.mboxNext = next
}

// MailQueued returns how many mailbox messages the core has not folded into
// its clock yet. It folds nothing, so a test can see where a walk folds its
// mail.
func (c *CPU) MailQueued() int { return len(c.mbox) - c.mboxHead }

// DeliverAt enqueues cost cycles of remote work (e.g. a shootdown IPI
// handler) arriving at this core at virtual time stamp, and counts it as a
// received interrupt. Any core may send it; this core folds it into the
// clock when its own virtual time crosses the stamp. Messages with equal
// stamps commute under the fold-at-max rule, so insertion order between
// them does not matter.
func (c *CPU) DeliverAt(stamp, cost uint64) {
	c.mbox = append(c.mbox, ipiMsg{})
	q := c.mbox[c.mboxHead:]
	// The message goes after every queued one stamped at or before it,
	// found by stepping back from the tail. Binary search was measured
	// against this on a 2-vCPU host: over the whole queue it made the
	// baseline legs of bench's local workload, where a message lands 2.9
	// places back on average, 1.3x slower; as a fallback past 8 places it
	// did not shorten spawn.txt, whose 80-core bonsai cell lands one 150
	// places back on average.
	i := len(q) - 1
	for ; i > 0 && q[i-1].stamp > stamp; i-- {
		q[i] = q[i-1]
	}
	q[i] = ipiMsg{stamp, cost}
	if i == 0 {
		c.mboxNext = stamp
	}
	if d := uint64(len(q)); d > c.stats.IPIMboxMax {
		c.stats.IPIMboxMax = d
	}
	c.stats.ipisRecv++
}
