package hw

// Lock is a mutex with virtual-time accounting. Acquire excludes other
// cores (a contended acquire waits, CPU.Stall) and additionally models the
// lock as a serialization point: the acquirer's virtual clock is pushed past
// the end of the previous holder's critical section, and the lock word
// itself is a contended cache line, so even uncontended acquisitions pay
// coherence cost when the previous holder was a different core.
//
// The zero value is an unlocked Lock.
type Lock struct {
	held bool
	line Line
	gate Gate // critical-section queue
}

// Acquire takes the lock on behalf of core c, advancing c's virtual clock
// past both the lock-word transfer and the previous holder's critical
// section (when their busy periods genuinely overlap — see Gate). It is
// a preemption point. Release must be called by the same core's proc.
func (c *CPU) Acquire(l *Lock) {
	c.Preempt()
	now := c.Now()
	for l.held {
		c.Stall()
	}
	l.held = true
	c.Write(&l.line) // CAS on the lock word
	c.advanceTo(CauseLockWait, l.gate.arrive(now))
}

// Release drops the lock, recording the end of c's critical section.
func (c *CPU) Release(l *Lock) {
	c.Write(&l.line) // store to the lock word
	l.gate.release(c.Now())
	l.held = false
}

// RWLock is a read-write lock with virtual-time accounting, modeling the
// Linux mmap_sem the paper blames for VM collapse. Both read and write
// acquisition write the lock word (the reader count is a fetch-and-add),
// so read-mostly use still ping-pongs one cache line — the paper's
// explanation for why Linux pagefaults stop scaling ("pagefaults from
// different cores contend for read access to the read/write lock", §5.2).
//
// The zero value is an unlocked RWLock.
type RWLock struct {
	readers int  // cores holding the read side
	writer  bool // a core holds the write side
	line    Line
	wgate   Gate // writer critical sections
	rgate   Gate // aggregate reader occupancy
}

// RLock acquires the lock in read (shared) mode for core c. It is a
// preemption point.
func (c *CPU) RLock(l *RWLock) {
	c.Preempt()
	now := c.Now()
	for l.writer {
		c.Stall()
	}
	l.readers++
	c.Write(&l.line)           // atomic inc of the reader count
	t := l.wgate.waitOnly(now) // wait out an overlapping writer
	if l.rgate.free <= now {
		l.rgate.busyStart = now // first reader of a new busy period
	}
	c.advanceTo(CauseLockWait, t)
}

// RUnlock releases a read acquisition.
func (c *CPU) RUnlock(l *RWLock) {
	c.Write(&l.line) // atomic dec of the reader count
	l.rgate.release(c.Now())
	l.readers--
}

// WLock acquires the lock in write (exclusive) mode for core c, waiting in
// virtual time for both the previous writer and all overlapping readers. It
// is a preemption point.
func (c *CPU) WLock(l *RWLock) {
	c.Preempt()
	now := c.Now()
	for l.writer || l.readers > 0 {
		c.Stall()
	}
	l.writer = true
	c.Write(&l.line)
	t := l.wgate.arrive(now)
	if r := l.rgate.waitOnly(now); r > t {
		t = r
	}
	c.advanceTo(CauseLockWait, t)
}

// WUnlock releases a write acquisition.
func (c *CPU) WUnlock(l *RWLock) {
	c.Write(&l.line)
	l.wgate.release(c.Now())
	l.writer = false
}

// One-bit slot spinlocks — the paper's "each slot in the radix tree
// reserves one bit for this purpose" — live in bitlock.go: exclusion bits
// packed into words plus a per-bit Gate. Unlike Lock they have no Line of
// their own: the caller charges the containing line explicitly, because
// several slots share a line and that false sharing is part of what the
// paper measures.
