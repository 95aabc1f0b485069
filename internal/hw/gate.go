package hw

// waitGate models a serialization resource (a lock's critical section, a
// cache line's home-node queue) in virtual time. The subtlety: the
// deterministic schedule steps the lowest-clock core first, but a core it
// picks runs a whole inter-yield chunk, so a core can reach a resource
// "after" (in real time) a holder whose critical section ran in the core's
// virtual *future*. (Under RunGang the Go scheduler orders the cores, and
// the inversion is unbounded.) Charging such an arrival
// the full wait would be wrong — in a faithful timeline the arrival would
// have been served first — and worse, the errors compound into a global
// max-plus ratchet that serializes everything (every jump inflates the
// next resource's release time).
//
// The rule that keeps genuine contention and kills the ratchet: an arrival
// waits for the gate's release time only if it arrived at or after the
// start of the gate's current busy period — i.e. only if its critical
// section genuinely overlaps the queue. A burst of n cores arriving
// together therefore still serializes fully (they all arrive at the busy
// period's start), while an arrival whose virtual clock predates the busy
// period passes as if the resource were idle.
//
// Callers synchronize access to the gate themselves (a mutex or the
// enclosing Line's lock).
type waitGate struct {
	free      uint64 // virtual time the resource becomes free
	busyStart uint64 // arrival time that began the current busy period
}

// arrive records an arrival whose pre-wait clock is now, returning the
// virtual time service may start. It must be paired with release.
func (g *waitGate) arrive(now uint64) (start uint64) {
	if g.free <= now {
		// Idle resource: a new busy period begins with us.
		g.busyStart = now
		return now
	}
	if now >= g.busyStart {
		// We arrived inside the busy period: queue behind it.
		return g.free
	}
	// Ordering inversion (real order against virtual time): in a faithful
	// timeline we would have been served before this busy period; pass
	// through.
	return now
}

// waitOnly is arrive for a resource the caller observes but does not
// occupy (e.g. a reader checking the writer gate): same overlap rule, no
// busy-period bookkeeping.
func (g *waitGate) waitOnly(now uint64) uint64 {
	if g.free > now && now >= g.busyStart {
		return g.free
	}
	return now
}

// release marks the caller's occupancy as ending at end. Monotonic: an
// inverted-order passer never shortens the queue it bypassed.
func (g *waitGate) release(end uint64) {
	if end > g.free {
		g.free = end
	}
}
