package hw

import "math/bits"

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
// The directory is one state word beside a sharer bitmap:
//
//	bits 8-15  owner+1: the last core that wrote the line, 0 = none
//	bits 0-7   exclusive+1: the core that alone caches and owns the line
//
// While the exclusive field is set, that core is the only sharer and owns
// the line; the sharer words are stale then and are authoritative only
// while the field is 0. A write therefore costs the state word alone: a
// transfer is one store that makes the writer owner and exclusive holder.
// A read by a second core turns the exclusive holder back into a sharer
// set: it stores {holder, reader}, one store per sharer word, and clears
// the field. Repeated touches by the exclusive holder — the steady state
// of every scalable workload the paper measures — are classified by one
// load of the word.
//
// The zero value is an uncached line, ready to use. Lines are embedded by
// the thousand in simulated data structures, so the struct is kept as
// small as the model allows (40 bytes).
type Line struct {
	state  uint64                // (owner+1)<<8 | (exclusive+1)
	shared [MaxCores / 64]uint64 // sharer bitmap, stale while exclusive is set
	gate   Gate                  // home-node service queue in virtual time
}

// The state word's fields. A core's field value is its ID plus one.
const (
	exclMask   = 1<<8 - 1
	ownerShift = 8
)

// The owner and exclusive fields hold MaxCores in 8 bits: this fails to
// compile once MaxCores reaches 256.
var _ [exclMask - MaxCores]struct{}

// Reset returns l to the uncached zero state, for data structures that
// recycle memory (e.g. the radix tree's per-CPU node pools): the recycled
// object's lines behave exactly like freshly allocated memory — cold, owned
// by nobody.
func (l *Line) Reset() { *l = Line{} }

// sharedHas reports whether core id is in the sharer bitmap.
func (l *Line) sharedHas(id int) bool {
	return l.shared[id/64]&(1<<(uint(id)%64)) != 0
}

// sharedSet makes {a, b} the sharer set.
func (l *Line) sharedSet(a, b int) {
	l.shared = [len(l.shared)]uint64{}
	l.shared[a/64] |= 1 << (uint(a) % 64)
	l.shared[b/64] |= 1 << (uint(b) % 64)
}

// sharedOnly reports whether core id is the one sharer.
func (l *Line) sharedOnly(id int) bool {
	var w [len(l.shared)]uint64
	w[id/64] = 1 << (uint(id) % 64)
	return l.shared == w
}

func (l *Line) sharedLowest() int {
	for i, w := range l.shared {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// How a touch can be served. A touch that is not a hit is a transfer or
// a cold fill (xferCost).
type hitKind uint8

const (
	miss      hitKind = iota
	hitExcl           // the toucher holds the line alone: no shared state touched
	hitShared         // a read by a sharer, or a write by the sole sharer
)

// hitBy is the one classification of a touch by core id of a line whose
// state word is s, as a write when write is set: the exclusive holder hits
// either way; a line that has an exclusive holder misses for every other
// core; otherwise a read hits for any sharer and a write for the sole one.
func (l *Line) hitBy(s uint64, id int, write bool) hitKind {
	switch x := s & exclMask; {
	case x == uint64(id)+1:
		return hitExcl
	case x != 0:
		return miss
	case write && l.sharedOnly(id), !write && l.sharedHas(id):
		return hitShared
	}
	return miss
}

// Read models a load from the line by core c. It is a preemption point.
func (c *CPU) Read(l *Line) {
	if c.x != nil {
		c.preempt()
	}
	s := l.state
	k := l.hitBy(s, c.id, false)
	if k == hitExcl {
		c.stats.LocalHits++
		c.TickAs(CauseLineHit, c.m.cfg.LocalHit)
		return
	}
	now := c.Now()
	if k == hitShared {
		c.hit(now)
		return
	}
	cost, cross, cold := c.xferCost(l, s)
	if x := s & exclMask; x != 0 {
		l.sharedSet(int(x)-1, c.id)
		l.state = s &^ exclMask
	} else {
		// A line with no exclusive holder has no owner or two sharers
		// already, so the reader joins them and never holds it alone.
		l.shared[c.id/64] |= 1 << (uint(c.id) % 64)
	}
	start := l.gate.arrive(now)
	end := start + cost
	l.gate.release(end)
	c.miss(start, end, cross, cold)
}

// Write models a store to the line by core c. It is a preemption point.
func (c *CPU) Write(l *Line) {
	if c.x != nil {
		c.preempt()
	}
	s := l.state
	k := l.hitBy(s, c.id, true)
	if k == hitExcl {
		// Silent upgrade, no shared state touched.
		c.stats.LocalHits++
		c.TickAs(CauseLineHit, c.m.cfg.LocalHit)
		return
	}
	now := c.Now()
	me := uint64(c.id) + 1
	l.state = me<<ownerShift | me
	if k == hitShared {
		// Sole holder: silent upgrade to exclusive.
		c.hit(now)
		return
	}
	cost, cross, cold := c.xferCost(l, s)
	start := l.gate.arrive(now)
	end := start + cost
	l.gate.release(end)
	c.miss(start, end, cross, cold)
}

// HitRun charges reads of every line of path and then a read of last, or a
// write when write is set, in one step: LocalHit each to CauseLineHit, and
// one LocalHits each — what those len(path)+1 touches charge one by one when
// every one is a local hit. It reports whether it did. It refuses, charging
// and changing nothing, when any touch would not hit, and wherever
// ChargeHits refuses. A read that hits changes no line, so each touch finds
// the state hitBy classifies here; a write that hits as the sole sharer
// upgrades last to exclusive, as Write does.
func (c *CPU) HitRun(path []*Line, last *Line, write bool) bool {
	for _, l := range path {
		if l.hitBy(l.state, c.id, false) == miss {
			return false
		}
	}
	k := last.hitBy(last.state, c.id, write)
	if k == miss || !c.ChargeHits(uint64(len(path))+1) {
		return false
	}
	if write && k == hitShared {
		me := uint64(c.id) + 1
		last.state = me<<ownerShift | me
	}
	return true
}

// ChargeHits charges n touches in one step as local hits — LocalHit each to
// CauseLineHit, and one LocalHits each — and reports whether it did: HitRun
// without the proof, for a caller that knows every one of the touches hits
// (a page-table range walk, on the lines its last walk touched). It refuses,
// charging nothing, on the explorer, where every touch stays a preemption
// point, and when a mailbox message falls due at or before the run's end, so
// that the separate touches would fold no message either.
func (c *CPU) ChargeHits(n uint64) bool {
	cost := n * c.m.cfg.LocalHit
	if c.x != nil || c.clock+cost >= c.mboxNext {
		return false
	}
	c.stats.LocalHits += n
	c.cycles[CauseLineHit] += cost
	c.clock += cost
	return true
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

// xferCost picks the transfer cost for core c missing on line l, whose
// state word was s when c touched it.
func (c *CPU) xferCost(l *Line, s uint64) (cost uint64, crossSocket, cold bool) {
	cfg := &c.m.cfg
	// Fetch from the previous owner's cache; a line never written has no
	// exclusive holder either, so its sharer bitmap is authoritative, and
	// its source is approximated as the lowest sharer.
	src := int(s>>ownerShift&exclMask) - 1
	if src < 0 {
		if src = l.sharedLowest(); src < 0 {
			// Cold: fill from DRAM (not coherence traffic).
			return cfg.DRAMAccess, false, true
		}
	}
	if sock := c.m.socket; sock[src] == sock[c.id] {
		return cfg.SameSocketXfer, false, false
	}
	return cfg.CrossSocketXfer, true, false
}
