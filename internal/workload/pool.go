package workload

import (
	"slices"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// process is one fleet child: the address space an arrival forked, and what
// the pool's eviction and the latency percentiles read of it. It turns
// dormant — still resident, now evictable — when its last thread finishes.
type process struct {
	id          int // arrival index; also the LRU tiebreak
	sys         vm.System
	arrived     uint64 // virtual time of the spawn request
	threadsLeft int
	dormant     bool
	firstTouch  uint64 // virtual time of the first page touch, 0 until set
	lastRun     uint64 // latest virtual time a thread noted a run: the LRU key
	footprint   uint64 // bytes charged against the pool's ceiling
}

// noteRun records that one of p's threads ran at virtual time now.
func (p *process) noteRun(now uint64) { p.lastRun = max(p.lastRun, now) }

// noteFirstTouch records a page touch at now, keeping the earliest.
func (p *process) noteFirstTouch(now uint64) {
	if p.firstTouch == 0 || now < p.firstTouch {
		p.firstTouch = now
	}
}

// firstTouchLatency is the spawn-to-first-touch virtual latency, or 0 if no
// thread touched a page.
func (p *process) firstTouchLatency() uint64 {
	if p.firstTouch == 0 {
		return 0
	}
	return p.firstTouch - p.arrived
}

// pool is the fleet's bounded membership: at most maxLive resident processes
// charging at most ceiling bytes. Going over either bound evicts the
// least-recently-run dormant process (ties by lowest ID) and tears its address
// space down on the core that went over; a running process is never evicted,
// so the pool overshoots while everything resident is still running. Every
// call comes from hw.Sched's one event loop — an arrival's fold or a proc
// body — so nothing here is locked, and under the deterministic schedule the
// eviction sequence is a pure function of virtual time.
type pool struct {
	maxLive   int
	ceiling   uint64 // bytes; 0 = no byte ceiling
	teardown  func(c *hw.CPU, p *process)
	live      []*process
	bytes     uint64
	liveHigh  int   // most processes ever resident at once
	evictions []int // evicted process IDs, in order
}

// newPool creates a pool admitting at most maxLive resident processes (<= 0:
// unbounded) charging at most ceiling bytes (0: unbounded); teardown releases
// an evicted process's address space.
func newPool(maxLive int, ceiling uint64, teardown func(c *hw.CPU, p *process)) *pool {
	if maxLive <= 0 {
		maxLive = 1 << 30
	}
	return &pool{maxLive: maxLive, ceiling: ceiling, teardown: teardown}
}

// admit makes p resident.
func (pl *pool) admit(c *hw.CPU, p *process) {
	pl.live = append(pl.live, p)
	pl.liveHigh = max(pl.liveHigh, len(pl.live))
	pl.evict(c)
}

// charge bills bytes of memory to p (COW copies, file pages faulted).
func (pl *pool) charge(c *hw.CPU, p *process, bytes uint64) {
	p.footprint += bytes
	pl.bytes += bytes
	pl.evict(c)
}

// threadDone marks one of p's threads finished at virtual time now; the last
// one's finish leaves p dormant.
func (pl *pool) threadDone(c *hw.CPU, p *process, now uint64) {
	if p.threadsLeft--; p.threadsLeft > 0 {
		return
	}
	p.dormant = true
	p.noteRun(now)
	pl.evict(c)
}

// evict tears down LRU dormant processes on c while the pool exceeds a bound.
func (pl *pool) evict(c *hw.CPU) {
	for len(pl.live) > pl.maxLive || (pl.ceiling > 0 && pl.bytes > pl.ceiling) {
		var v *process
		vi := -1
		for i, q := range pl.live {
			if q.dormant && (v == nil || q.lastRun < v.lastRun || (q.lastRun == v.lastRun && q.id < v.id)) {
				v, vi = q, i
			}
		}
		if v == nil {
			return // everything resident is still running: overshoot
		}
		pl.live = slices.Delete(pl.live, vi, vi+1)
		pl.bytes -= v.footprint
		pl.evictions = append(pl.evictions, v.id)
		pl.teardown(c, v)
	}
}
