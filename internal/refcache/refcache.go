// Package refcache implements Refcache, the RadixVM paper's space-efficient,
// lazy, scalable reference counting scheme (§3.1).
//
// Each reference-counted object has a global count; each core keeps a small
// fixed-size cache of per-object count *deltas*. Inc and Dec touch only the
// local delta cache (no shared cache lines), so objects manipulated from a
// single core cost nothing in coherence traffic. Deltas are flushed to the
// global count once per epoch. Because flushes reorder operations, a zero
// global count does not mean a zero true count: the first core to drive a
// global count to zero queues the object on its local review queue, and
// only if the count is still zero — and was never non-zero in between (no
// "dirty zero") — two epoch boundaries later is the object freed.
//
// Weak references support revival: the paper's weak reference is a tagged
// pointer — a pointer plus a "dying" bit — and here it is a fixed Obj plus
// one state word in it (dead, alive or dying). TryGet atomically clears the
// dying bit and increments the count, reviving an object whose global count
// touched zero; the freeing path swings dying to dead, and whichever CAS
// wins the race decides the object's fate — exactly the paper's Figure 2.
//
// Unlike sloppy counters or SNZI, space is O(objects + cores), not
// O(objects × cores): the per-core state is one fixed-size delta cache and
// one review queue regardless of how many objects exist.
package refcache

import (
	"fmt"

	"radixvm/internal/fifo"
	"radixvm/internal/hw"
)

// DefaultCacheSlots is the default number of entries in each core's delta
// cache. Collisions evict the old delta to the global count early, which is
// correct but costs a shared-line write; the size trades space against that
// conflict rate (paper §3.1).
const DefaultCacheSlots = 4096

// Refcache is one reference-counting domain: a set of per-core delta caches
// and review queues plus the epoch barrier that coordinates them. A machine
// typically has exactly one, shared by physical pages and radix-tree nodes.
type Refcache struct {
	m         *hw.Machine
	slots     uint64
	localHit  uint64 // m.Config().LocalHit, hoisted out of the Inc/Dec path
	cores     []coreState
	nextObjID uint64

	epoch      uint64  // current global epoch
	epochLine  hw.Line // the cache line holding the global epoch
	numFlushed int     // cores that have flushed in the current epoch
}

// coreState is one core's delta cache and review queue.
type coreState struct {
	cache     []entry
	review    fifo.Queue[reviewEntry]
	epoch     uint64 // last epoch this core flushed in
	lastFlush uint64 // virtual time of the last flush
	// Review-pressure diagnostics (no virtual-time cost): objects this
	// core has examined in review passes, and the deepest its review
	// queue has been when a pass began.
	reviews    uint64
	reviewHigh int
}

type entry struct {
	obj   *Obj
	delta int64
}

type reviewEntry struct {
	obj   *Obj
	epoch uint64 // global epoch when queued
}

// New creates a Refcache domain for machine m with the default delta-cache
// size.
func New(m *hw.Machine) *Refcache {
	return NewSized(m, DefaultCacheSlots)
}

// NewSized creates a Refcache domain with slots delta-cache entries per
// core. slots must be a power of two. Per-core delta caches are allocated
// lazily, on a core's first Inc/Dec: a domain on an 80-core machine costs
// a few hundred bytes until cores actually count something, instead of
// ~64 KB per core up front (which used to dominate benchmark-environment
// construction).
func NewSized(m *hw.Machine, slots int) *Refcache {
	if slots <= 0 || slots&(slots-1) != 0 {
		panic(fmt.Sprintf("refcache: cache slots %d not a power of two", slots))
	}
	rc := &Refcache{m: m, slots: uint64(slots), localHit: m.Config().LocalHit}
	rc.cores = make([]coreState, m.NCores())
	rc.epoch = 1
	return rc
}

// Obj is a reference-counted object. Obtain one with Refcache.NewObj and
// manipulate it only through its Refcache. The paper guards the object's
// fields with a fine-grained per-object lock; here every change to them
// happens between two preemption points (each line touch is one), which
// makes it atomic without one.
type Obj struct {
	id   uint64
	line hw.Line // the global count's cache line

	// Data is an arbitrary payload (e.g. the radix-tree node this count
	// guards). Set it once, before the object is shared; it is read-only
	// afterwards.
	Data any

	refcnt   int64 // global reference count
	dirty    bool  // became non-zero while on a review queue
	onReview bool
	weak     uint32              // weak-reference state: weakDead, weakAlive or weakDying
	weakLine hw.Line             // the weak state's cache line
	free     func(*hw.CPU, *Obj) // invoked exactly once when truly dead
}

// NewObj creates an object with the given initial global count. free, if
// non-nil, runs exactly once when Refcache determines the true count is
// zero (and no TryGet revived the object). It runs on the core performing
// epoch maintenance.
//
// Construction is a single allocation: the weak state is a word in the
// object, which matters to callers that create objects on hot paths (one per
// radix-tree node, including nodes recycled through the per-CPU pools —
// each recycled node still gets a fresh Obj, so stale weak references can
// never resurrect a recycled node).
func (rc *Refcache) NewObj(initial int64, free func(*hw.CPU, *Obj)) *Obj {
	o := &Obj{}
	rc.InitObj(o, initial, free)
	return o
}

// InitObj (re)initializes an Obj embedded in a larger structure for a new
// lifetime, the allocation-free alternative to NewObj: a physical page
// frame embeds its Obj and reinitializes it on each trip through the
// allocator, which makes the page-fault path's frame allocation heap-free.
//
// The caller must hold the only reference to o — a freed object being
// readied for reuse, or a freshly zeroed embedding. Reuse is sound only
// for objects whose weak references are never retained across lifetimes
// (frames qualify: they never use weak-ref revival, and Refcache's
// two-epoch free guarantee means no core still caches a delta for the
// previous incarnation). Objects that hand out weak references to
// long-lived holders — radix-tree nodes — must keep taking fresh Objs from
// NewObj, so a stale weak reference can never resurrect recycled memory
// under its new identity.
//
// o.Data is left untouched (a frame's Obj always points back to the
// frame); the embedded coherence lines are reset, so the new incarnation's
// count behaves like freshly allocated memory — cold, owned by nobody —
// exactly as a heap-allocated Obj would.
func (rc *Refcache) InitObj(o *Obj, initial int64, free func(*hw.CPU, *Obj)) {
	rc.nextObjID++
	o.id = rc.nextObjID
	o.refcnt = initial
	o.dirty = false
	o.onReview = false
	o.free = free
	o.line.Reset()
	o.weakLine.Reset()
	o.weak = weakAlive
}

// GlobalCount returns the object's current global count (diagnostic; the
// true count also includes unflushed per-core deltas).
func (o *Obj) GlobalCount() int64 { return o.refcnt }

// Freed reports whether the object is dead: its deletion CAS has won and
// its free callback has run, or is running.
func (o *Obj) Freed() bool { return o.weak == weakDead }

func (rc *Refcache) slot(cpu *hw.CPU, o *Obj) *entry {
	cs := &rc.cores[cpu.ID()]
	if cs.cache == nil {
		cs.cache = make([]entry, rc.slots)
	}
	h := o.id * 0x9E3779B97F4A7C15
	return &cs.cache[(h>>17)&(rc.slots-1)]
}

// Inc increments o's reference count from core cpu. It touches only the
// core-local delta cache unless a cache collision forces an eviction.
func (rc *Refcache) Inc(cpu *hw.CPU, o *Obj) { rc.adjust(cpu, o, +1) }

// Dec decrements o's reference count from core cpu.
func (rc *Refcache) Dec(cpu *hw.CPU, o *Obj) { rc.adjust(cpu, o, -1) }

func (rc *Refcache) adjust(cpu *hw.CPU, o *Obj, d int64) {
	if o == nil {
		panicDead(cpu)
	}
	e := rc.slot(cpu, o)
	if e.obj != o {
		// Checked where the core starts caching o, not on every hit (the
		// hottest path there is): the cache is emptied every epoch, so a
		// dead reference still in use gets here within one.
		if o.Freed() {
			panicDead(cpu)
		}
		if e.obj != nil && e.delta != 0 {
			cpu.Stats().RefcacheEvicts++
			rc.evict(cpu, e.obj, e.delta)
		}
		e.obj = o
		e.delta = 0
	}
	e.delta += d
	cpu.TickAs(hw.CauseLineHit, rc.localHit) // per-core cache: core-local line
}

// panicDead reports a count adjusted through a reference that no longer
// holds anything: a nil object or one that is dead (a released frame's
// embedded count is, until the frame's next Alloc). Either is a
// use-after-free in the caller; naming it here beats the nil dereference or
// silent resurrection it would otherwise surface as.
func panicDead(cpu *hw.CPU) {
	panic(fmt.Sprintf("refcache: Inc/Dec on dead object (core %d)", cpu.ID()))
}

// evict applies a cached delta to o's global count, implementing the
// paper's evict(): a count that reaches zero is queued for review on this
// core (unless already queued somewhere), and a count that is non-zero
// marks any pending review dirty. The count's line is touched first and the
// weak state's last, so the update between them is one atomic step.
func (rc *Refcache) evict(cpu *hw.CPU, o *Obj, delta int64) {
	cpu.Write(&o.line)
	o.refcnt += delta
	if o.refcnt != 0 {
		o.dirty = true
		return
	}
	if !o.onReview {
		o.dirty = false
		o.onReview = true
		cs := &rc.cores[cpu.ID()]
		cs.review.Push(reviewEntry{obj: o, epoch: rc.epoch})
		o.setDying(cpu, true)
	}
}

// Maintain performs this core's periodic Refcache work: once the core's
// virtual clock has advanced an epoch past its previous flush, it evicts
// its whole delta cache, joins the epoch barrier (the last core to flush
// ends the epoch), and reviews queued objects. Call it frequently from each
// simulated core's loop; it is cheap when no flush is due.
func (rc *Refcache) Maintain(cpu *hw.CPU) {
	cs := &rc.cores[cpu.ID()]
	ge := rc.epoch
	if cs.epoch >= ge {
		return // already flushed in this epoch
	}
	if cpu.Now() < cs.lastFlush+rc.m.Config().EpochCycles {
		return // not yet time (paper: ~10 ms between flushes)
	}
	rc.flushCore(cpu, ge)
}

func (rc *Refcache) flushCore(cpu *hw.CPU, ge uint64) {
	cs := &rc.cores[cpu.ID()]
	alreadyFlushed := cs.epoch >= ge
	// Flush: evict all non-zero deltas and clear the cache. A core that
	// never counted anything has no cache to flush (it is nil).
	for i := range cs.cache {
		e := &cs.cache[i]
		if e.obj != nil && e.delta != 0 {
			rc.evict(cpu, e.obj, e.delta)
		}
		e.obj = nil
		e.delta = 0
	}
	cs.epoch = ge
	cs.lastFlush = cpu.Now()

	// Epoch barrier: the global epoch and flush count live on one shared
	// line, the scheme's "small constant rate of cache line movement".
	cpu.Write(&rc.epochLine)
	// Join the barrier at most once per epoch per core (a core may flush
	// again in the same epoch via FlushAll after Maintain already ran).
	if rc.epoch == ge && !alreadyFlushed {
		rc.numFlushed++
		if rc.numFlushed == len(rc.cores) {
			rc.numFlushed = 0
			rc.epoch = ge + 1
		}
	}

	rc.reviewCore(cpu)
}

// reviewCore implements the paper's review(): objects queued at epoch E are
// examined once the global epoch reaches E+2, guaranteeing every core has
// flushed its delta cache at least once in between. Re-queued dirty zeros
// are written over the front of the examined prefix as the pass goes, then
// moved to just ahead of the too-recent tail and the rest of the prefix is
// dropped, so the tail is never copied. A free callback run in the pass may
// itself Dec counts to zero (freeing a radix node Decs its parent) and queue
// objects via evict; those land behind the tail, where the pass never looks.
func (rc *Refcache) reviewCore(cpu *hw.CPU) {
	cs := &rc.cores[cpu.ID()]
	now := rc.epoch
	q := &cs.review
	n := q.Len()
	if n > cs.reviewHigh {
		cs.reviewHigh = n
	}
	w := 0
	i := 0
	for ; i < n; i++ {
		re := *q.At(i)
		if now < re.epoch+2 {
			break // queue is in epoch order; the rest is too recent
		}
		o := re.obj
		cpu.Write(&o.line)
		o.onReview = false
		switch {
		case o.refcnt != 0:
			o.setDying(cpu, false)
		case o.dirty || !o.tryKill(cpu):
			// Dirty zero, or a TryGet revived the object between
			// our zero detection and now: review again later.
			o.dirty = false
			o.onReview = true
			o.setDying(cpu, true)
			*q.At(w) = reviewEntry{obj: o, epoch: now}
			w++
		default:
			if o.free != nil {
				o.free(cpu, o)
			}
		}
	}
	cs.reviews += uint64(i)
	if i > w {
		for j := w - 1; j >= 0; j-- {
			*q.At(i - w + j) = *q.At(j)
		}
		q.Drop(i - w)
	}
}

// Reviews sums the objects every core has examined in review passes — the
// fleet figures' "review pressure" metric. Quiescent diagnostic: call only
// while no core is inside Maintain.
func (rc *Refcache) Reviews() uint64 {
	var n uint64
	for i := range rc.cores {
		n += rc.cores[i].reviews
	}
	return n
}

// ReviewQueueHighWater reports the deepest any core's review queue has
// been at the start of a review pass. Quiescent diagnostic.
func (rc *Refcache) ReviewQueueHighWater() int {
	high := 0
	for i := range rc.cores {
		if rc.cores[i].reviewHigh > high {
			high = rc.cores[i].reviewHigh
		}
	}
	return high
}

// FlushAll drives one full epoch on behalf of every core: flush, barrier,
// review. It is a quiescent-state helper for tests and teardown; no core
// may be executing VM operations concurrently. Calling it three times
// guarantees any object whose true count is zero has been freed (flush,
// the 2-epoch review delay, review).
func (rc *Refcache) FlushAll() {
	ge := rc.epoch
	for i := 0; i < rc.m.NCores(); i++ {
		rc.flushCore(rc.m.CPU(i), ge)
	}
}

// TrueCount returns global count plus all cached deltas. Quiescent-state
// diagnostic only: it reads per-core caches without synchronization.
func (rc *Refcache) TrueCount(o *Obj) int64 {
	t := o.GlobalCount()
	for i := range rc.cores {
		for j := range rc.cores[i].cache {
			if e := &rc.cores[i].cache[j]; e.obj == o {
				t += e.delta
			}
		}
	}
	return t
}
