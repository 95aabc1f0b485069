package hw

import (
	"runtime"
	"sync/atomic"
)

// Packed one-bit spinlocks. Where a Lock spends a mutex plus its gate per
// lock, structures that embed a lock per slot — the radix tree reserves
// one bit in each of its 512 slots (§3.2) — pack the exclusion bits into a
// handful of atomic words and keep only the per-slot Gate. That matches the paper's layout (the lock really is one
// bit of the slot) and cuts the dominant per-node memory cost.
//
// Real mutual exclusion comes from a CAS on the bit; a loser spins with
// runtime.Gosched, which is fine here because critical sections are short
// in real time (only virtual time is long). Virtual-time serialization
// comes from the per-bit Gate, exactly as a Lock's comes from its gate.
//
// Memory ordering: the winning CAS is an acquire, the clearing store a
// release, so the Gate (and any other state the bit guards) needs no
// further synchronization between holders.

// Gate is an exported wrapper of the virtual-time wait gate, for use with
// the packed-bit lock operations. The zero value is an idle gate.
type Gate struct{ g waitGate }

// Reset reinitializes the gate of an unheld bit embedded in recycled
// memory: the new incarnation starts with no critical-section history.
func (g *Gate) Reset() { g.g = waitGate{} }

// Restore sets the gate's state wholesale: the resource is free at virtual
// time free, and its current/most recent busy period began at busyStart
// (Restore(0, now) records a bulk acquisition — "priming" — of an
// already-set bit at now without contention modeling). This exists for
// lazily materialized gate tables (the radix tree's copy-on-diverge slot
// groups): a gate created long after the bulk lock-bit propagation that
// would have primed and released it must carry exactly the state the eager
// table would have had. Only legal when no core can race on the gate —
// either the enclosing structure is unpublished, or the caller holds the
// materialization lock and the gate's bit.
func (g *Gate) Restore(free, busyStart uint64) {
	g.g = waitGate{free: free, busyStart: busyStart}
}

// AcquireBitIn locks bit mask of word w for core c, spinning until it is
// free, then waits out the previous holder's critical section in virtual
// time through gate, charging the wait to cause k. The caller must have
// charged the containing cache line already: the acquisition is a CAS on
// that line.
func (c *CPU) AcquireBitIn(w *atomic.Uint64, mask uint64, gate *Gate, k Cause) {
	now := c.Now() // arrival time: before any real-time spinning
	LockBit(w, mask)
	c.advanceTo(k, gate.g.arrive(now))
}

// LockBit locks bit mask of word w in real time only, spinning until it is
// free, for a holder that waits for nobody in virtual time.
func LockBit(w *atomic.Uint64, mask uint64) {
	for {
		old := w.Load()
		if old&mask == 0 {
			if w.CompareAndSwap(old, old|mask) {
				return
			}
			continue
		}
		runtime.Gosched()
	}
}

// ReleaseBitIn unlocks bit mask of word w, recording the end of c's
// critical section on gate.
func (c *CPU) ReleaseBitIn(w *atomic.Uint64, mask uint64, gate *Gate) {
	gate.g.release(c.Now())
	w.And(^mask)
}
