package hw

// Packed one-bit locks. Where a Lock spends a flag plus its gate per lock,
// structures that embed a lock per slot — the radix tree reserves one bit in
// each of its 512 slots (§3.2) — pack the exclusion bits into a handful of
// words and keep only the per-slot Gate. That matches the paper's layout (the
// lock really is one bit of the slot) and cuts the dominant per-node memory
// cost.
//
// Exclusion comes from the bit: an acquirer that finds it set waits
// (CPU.Stall) until the holder clears it. Virtual-time serialization comes
// from the per-bit Gate, exactly as a Lock's comes from its gate.

// AcquireBitIn locks bit mask of word w for core c, waiting until it is
// free, then waits out the previous holder's critical section in virtual
// time through gate, charging the wait to cause k. The caller must have
// charged the containing cache line already: the acquisition is a CAS on
// that line. It is a preemption point.
func (c *CPU) AcquireBitIn(w *uint64, mask uint64, gate *Gate, k Cause) {
	c.Preempt()
	now := c.Now() // arrival time: before any wait
	c.takeBit(w, mask)
	c.advanceTo(k, gate.arrive(now))
}

// LockBit locks bit mask of word w for core c, waiting until it is free, for
// a holder that waits for nobody in virtual time. It is a preemption point.
func (c *CPU) LockBit(w *uint64, mask uint64) {
	c.Preempt()
	c.takeBit(w, mask)
}

func (c *CPU) takeBit(w *uint64, mask uint64) {
	for *w&mask != 0 {
		c.Stall()
	}
	*w |= mask
}

// ReleaseBitIn unlocks bit mask of word w, recording the end of c's
// critical section on gate.
func (c *CPU) ReleaseBitIn(w *uint64, mask uint64, gate *Gate) {
	gate.release(c.Now())
	*w &^= mask
}
