package hw

import (
	"math/bits"
	"runtime"
	"sync/atomic"
)

// Line models one cache line of shared memory. Data structures embed Line
// values at the granularity of their real memory layout (e.g. one Line per
// 4 radix-tree slots) and call CPU.Read / CPU.Write when they touch the
// corresponding bytes.
//
// The model is a single-writer/multi-reader directory with home-node
// serialization: a touch that misses (the line is not in the toucher's
// cache, or a write while other cores share it) is a "transfer" whose
// service starts no earlier than the line's reservation time and advances
// the reservation — so back-to-back transfers of a hot line queue up in
// virtual time exactly as the paper describes. Touches that hit locally
// cost Config.LocalHit and involve no shared state.
//
// The directory is seqlock-protected rather than mutex-protected: `seq` is
// odd while a state transition is in progress, and transitions (transfers,
// sharer additions, ownership changes) serialize on it. Hit paths never
// take it:
//
//   - Repeated touches by a line's sole owner — the steady state of every
//     scalable workload the paper measures — are classified by one atomic
//     load of `fast` ((sole sharer & owner core)+1).
//   - Read hits by one of several sharers — the read-shared steady state,
//     e.g. many cores re-reading a published radix slot — validate the
//     sharer bitmap against `seq` and complete without any store to the
//     line's shared state, where the previous model took a mutex.
//
// A stale lock-free hit is indistinguishable from the same touch
// linearized just before the concurrent remote transfer that invalidated
// it, so the cost accounting is exactly that of the mutex version.
//
// The zero value is an uncached line, ready to use. Lines are embedded by
// the thousand in simulated data structures, so the struct is kept as
// small as the model allows (48 bytes).
type Line struct {
	fast   atomic.Int32                 // (sole sharer & owner core)+1, else 0
	seq    atomic.Uint32                // seqlock word: odd = transition in progress
	owner  atomic.Int32                 // last writing core + 1; 0 = none
	shared [MaxCores / 64]atomic.Uint64 // directory: cores that have the line cached
	gate   waitGate                     // home-node service queue in virtual time
}

// Reset returns l to the uncached zero state, for data structures that
// recycle memory (e.g. the radix tree's per-CPU node pools): the recycled
// object's lines behave exactly like freshly allocated memory — cold, owned
// by nobody. Only legal when no core can touch l concurrently.
func (l *Line) Reset() {
	l.fast.Store(0)
	l.seq.Store(0)
	l.owner.Store(0)
	for i := range l.shared {
		l.shared[i].Store(0)
	}
	l.gate = waitGate{}
}

// lock begins a directory transition: it spins until seq is even and flips
// it odd. Critical sections are a handful of loads and stores in real
// time, so losers yield rather than park.
func (l *Line) lock() {
	for {
		s := l.seq.Load()
		if s&1 == 0 && l.seq.CompareAndSwap(s, s+1) {
			return
		}
		runtime.Gosched()
	}
}

// unlock ends a transition, making seq even again.
func (l *Line) unlock() { l.seq.Add(1) }

// sharedHas reports whether core id is in the sharer directory.
func (l *Line) sharedHas(id int) bool {
	return l.shared[id/64].Load()&(1<<(uint(id)%64)) != 0
}

// sharedAdd / sharedClear mutate the directory; called with seq held odd.
func (l *Line) sharedAdd(id int) {
	w := &l.shared[id/64]
	w.Store(w.Load() | 1<<(uint(id)%64))
}

func (l *Line) sharedClear() {
	for i := range l.shared {
		l.shared[i].Store(0)
	}
}

func (l *Line) sharedCount() int {
	n := 0
	for i := range l.shared {
		n += bits.OnesCount64(l.shared[i].Load())
	}
	return n
}

func (l *Line) sharedLowest() int {
	for i := range l.shared {
		if w := l.shared[i].Load(); w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

func (l *Line) sharedEmpty() bool {
	for i := range l.shared {
		if l.shared[i].Load() != 0 {
			return false
		}
	}
	return true
}

// Read models a load from the line by core c.
func (c *CPU) Read(l *Line) {
	if l.fast.Load() == int32(c.id)+1 {
		// Sole sharer and owner: hit, no shared state touched.
		c.stats.LocalHits++
		c.TickAs(CauseLineHit, c.m.cfg.LocalHit)
		return
	}
	now := c.Now()
	// Read-shared hit, lock-free: if our directory bit is set under a
	// stable even seq, we had the line cached at that instant and the
	// load hits locally. A transition racing with us either left the bit
	// set (we still share the line) or is about to invalidate it, in
	// which case this hit linearizes just before the invalidation.
	if s := l.seq.Load(); s&1 == 0 && l.sharedHas(c.id) && l.seq.Load() == s {
		c.hit(now)
		return
	}
	l.lock()
	if l.sharedHas(c.id) {
		l.unlock()
		c.hit(now)
		return
	}
	cost, cross, cold := c.xferCost(l)
	start := l.gate.arrive(now)
	end := start + cost
	l.gate.release(end)
	l.sharedAdd(c.id)
	l.refreshFast(l.sharedCount() == 1)
	l.unlock()
	c.miss(start, end, cross, cold)
}

// Write models a store to the line by core c.
func (c *CPU) Write(l *Line) {
	if l.fast.Load() == int32(c.id)+1 {
		// Sole sharer and owner: silent upgrade, no shared state touched.
		c.stats.LocalHits++
		c.TickAs(CauseLineHit, c.m.cfg.LocalHit)
		return
	}
	now := c.Now()
	l.lock()
	if l.sharedCount() == 1 && l.sharedHas(c.id) {
		// Sole holder: hit or silent upgrade to exclusive.
		l.owner.Store(int32(c.id) + 1)
		l.fast.Store(int32(c.id) + 1)
		l.unlock()
		c.hit(now)
		return
	}
	cost, cross, cold := c.xferCost(l)
	start := l.gate.arrive(now)
	end := start + cost
	l.gate.release(end)
	l.owner.Store(int32(c.id) + 1)
	l.sharedClear()
	l.sharedAdd(c.id)
	l.fast.Store(int32(c.id) + 1)
	l.unlock()
	c.miss(start, end, cross, cold)
}

// refreshFast updates the fast-path hint after a state change. Called with
// seq held odd. The hint is set only when one core both caches and owns the
// line (so a fast Write can skip the owner update too); soleSharer reports
// whether exactly one core shares the line now.
func (l *Line) refreshFast(soleSharer bool) {
	if soleSharer {
		// The sole sharer may fast-hit only if it is also the owner (a
		// fast Write by a non-owning sole sharer would leave a stale
		// owner, so require ownership).
		if sole := l.sharedLowest(); sole >= 0 && l.owner.Load() == int32(sole)+1 {
			l.fast.Store(int32(sole) + 1)
			return
		}
	}
	l.fast.Store(0)
}

// hit completes a touch that hit locally after the clock was read as now.
func (c *CPU) hit(now uint64) {
	c.stats.LocalHits++
	c.clock = now + c.m.cfg.LocalHit
	c.cycles[CauseLineHit] += c.m.cfg.LocalHit
}

// miss completes a touch whose service by the line's home node starts at
// start and ends at end, and attributes it to the right statistic: coherence
// transfers (the paper's contention metric) or cold DRAM fills. The clock
// advances in two steps, the queue wait and then the service, each charged
// to its cause; a mailbox message stamped between them folds exactly where
// one advance to end would fold it.
func (c *CPU) miss(start, end uint64, cross, cold bool) {
	c.advanceTo(CauseLineQueue, start)
	if cold {
		c.stats.ColdMisses++
		c.advanceTo(CauseColdFill, end)
		return
	}
	c.stats.Transfers++
	if cross {
		c.stats.CrossSocket++
	}
	c.advanceTo(CauseLineXfer, end)
}

// xferCost picks the transfer cost for core c missing on line l.
// Called with seq held odd.
func (c *CPU) xferCost(l *Line) (cost uint64, crossSocket, cold bool) {
	cfg := &c.m.cfg
	owner := l.owner.Load()
	if owner == 0 && l.sharedEmpty() {
		// Cold: fill from DRAM (not coherence traffic).
		return cfg.DRAMAccess, false, true
	}
	// Fetch from the previous owner's (or a sharer's) cache.
	src := int(owner) - 1
	if src < 0 {
		// Shared but clean; approximate source as the lowest sharer.
		src = l.sharedLowest()
	}
	if src >= 0 && c.m.Socket(src) == c.Socket() {
		return cfg.SameSocketXfer, false, false
	}
	return cfg.CrossSocketXfer, true, false
}
