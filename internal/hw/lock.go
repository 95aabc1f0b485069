package hw

import "sync"

// Lock is a mutex with virtual-time accounting. Acquire provides real
// mutual exclusion (a sync.Mutex) and additionally models the lock as a
// serialization point: the acquirer's virtual clock is pushed past the end
// of the previous holder's critical section, and the lock word itself is a
// contended cache line, so even uncontended-in-real-time acquisitions pay
// coherence cost when the previous holder was a different core.
//
// The zero value is an unlocked Lock.
type Lock struct {
	mu   sync.Mutex
	line Line
	gate waitGate // critical-section queue; written only while mu is held
}

// Acquire takes the lock on behalf of core c, advancing c's virtual clock
// past both the lock-word transfer and the previous holder's critical
// section (when their busy periods genuinely overlap — see waitGate).
// Release must be called from the same goroutine.
func (c *CPU) Acquire(l *Lock) {
	now := c.Now()
	l.mu.Lock()
	c.Write(&l.line) // CAS on the lock word
	c.advanceTo(CauseLockWait, l.gate.arrive(now))
}

// Release drops the lock, recording the end of c's critical section.
func (c *CPU) Release(l *Lock) {
	c.Write(&l.line) // store to the lock word
	l.gate.release(c.Now())
	l.mu.Unlock()
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
	mu   sync.RWMutex
	line Line

	// Gates below are protected by smu, because readers hold mu only in
	// read mode.
	smu   sync.Mutex
	wgate waitGate // writer critical sections
	rgate waitGate // aggregate reader occupancy
}

// RLock acquires the lock in read (shared) mode for core c.
func (c *CPU) RLock(l *RWLock) {
	now := c.Now()
	l.mu.RLock()
	c.Write(&l.line) // atomic inc of the reader count
	l.smu.Lock()
	t := l.wgate.waitOnly(now) // wait out an overlapping writer
	if l.rgate.free <= now {
		l.rgate.busyStart = now // first reader of a new busy period
	}
	l.smu.Unlock()
	c.advanceTo(CauseLockWait, t)
}

// RUnlock releases a read acquisition.
func (c *CPU) RUnlock(l *RWLock) {
	c.Write(&l.line) // atomic dec of the reader count
	l.smu.Lock()
	l.rgate.release(c.Now())
	l.smu.Unlock()
	l.mu.RUnlock()
}

// WLock acquires the lock in write (exclusive) mode for core c, waiting in
// virtual time for both the previous writer and all overlapping readers.
func (c *CPU) WLock(l *RWLock) {
	now := c.Now()
	l.mu.Lock()
	c.Write(&l.line)
	l.smu.Lock()
	t := l.wgate.arrive(now)
	if r := l.rgate.waitOnly(now); r > t {
		t = r
	}
	l.smu.Unlock()
	c.advanceTo(CauseLockWait, t)
}

// WUnlock releases a write acquisition.
func (c *CPU) WUnlock(l *RWLock) {
	c.Write(&l.line)
	l.smu.Lock()
	l.wgate.release(c.Now())
	l.smu.Unlock()
	l.mu.Unlock()
}

// One-bit slot spinlocks — the paper's "each slot in the radix tree
// reserves one bit for this purpose" — live in bitlock.go: exclusion bits
// packed into atomic words plus a per-bit Gate. Unlike Lock they have no
// Line of their own: the caller charges the containing line explicitly,
// because several slots share a line and that false sharing is part of
// what the paper measures.
