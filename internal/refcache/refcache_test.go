package refcache

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"radixvm/internal/hw"
)

func newTestRC(ncores int) (*hw.Machine, *Refcache) {
	m := hw.NewMachine(hw.TestConfig(ncores))
	return m, New(m)
}

// flushEpochs drives n full epochs. Four epochs guarantee reclamation of
// anything already at true zero (flush + 2-epoch review delay + review).
func flushEpochs(rc *Refcache, n int) {
	for i := 0; i < n; i++ {
		rc.FlushAll()
	}
}

func TestIncDecNoSharedTraffic(t *testing.T) {
	// The headline property: inc/dec from a single core touch no shared
	// cache lines (all coherence traffic is local).
	m, rc := newTestRC(4)
	o := rc.NewObj(1, nil)
	c := m.CPU(2)
	m.ResetStats()
	for i := 0; i < 1000; i++ {
		rc.Inc(c, o)
		rc.Dec(c, o)
	}
	if tr := m.TotalStats().Transfers; tr != 0 {
		t.Errorf("inc/dec caused %d line transfers, want 0", tr)
	}
	if rc.TrueCount(o) != 1 {
		t.Errorf("TrueCount = %d, want 1", rc.TrueCount(o))
	}
}

func TestZeroDetectionAfterTwoEpochs(t *testing.T) {
	m, rc := newTestRC(2)
	o := rc.NewObj(1, nil)
	rc.Dec(m.CPU(0), o)
	rc.FlushAll() // applies the delta; global hits zero, queued
	if o.Freed() {
		t.Fatal("freed immediately at zero global count")
	}
	rc.FlushAll()
	if o.Freed() {
		t.Fatal("freed before two epoch boundaries")
	}
	flushEpochs(rc, 2)
	if !o.Freed() {
		t.Fatal("not freed after review delay")
	}
}

func TestFreeCallbackRunsOnce(t *testing.T) {
	m, rc := newTestRC(2)
	calls := 0
	o := rc.NewObj(1, func(*hw.CPU, *Obj) { calls++ })
	rc.Dec(m.CPU(0), o)
	flushEpochs(rc, 6)
	if calls != 1 {
		t.Fatalf("free ran %d times, want 1", calls)
	}
}

func TestBatchingAvoidsGlobalWrites(t *testing.T) {
	// Figure 1, epoch 1: multiple manipulations across cores never write
	// the global count until flush.
	m, rc := newTestRC(4)
	o := rc.NewObj(0, nil)
	rc.Inc(m.CPU(0), o)
	rc.Inc(m.CPU(1), o)
	rc.Dec(m.CPU(1), o)
	rc.Inc(m.CPU(2), o)
	rc.Dec(m.CPU(2), o)
	rc.Inc(m.CPU(2), o)
	if o.GlobalCount() != 0 {
		t.Fatalf("global count written before flush: %d", o.GlobalCount())
	}
	if rc.TrueCount(o) != 2 {
		t.Fatalf("TrueCount = %d, want 2", rc.TrueCount(o))
	}
	rc.FlushAll()
	if o.GlobalCount() != 2 {
		t.Fatalf("global after flush = %d, want 2", o.GlobalCount())
	}
}

func TestFalseZeroFromReordering(t *testing.T) {
	// Figure 1, epochs 2-4: core 0's decrement flushes before core 1's
	// increment, so the global count dips to zero even though the true
	// count is 1. The object must survive review.
	m, rc := newTestRC(2)
	o := rc.NewObj(1, nil)
	rc.Dec(m.CPU(0), o)
	rc.Inc(m.CPU(1), o)
	// Flush core 0 first (global drops to 0 and is queued), then core 1.
	ge := rc.epoch.Load()
	rc.flushCore(m.CPU(0), ge)
	if o.GlobalCount() != 0 {
		t.Fatalf("global = %d after dec flush", o.GlobalCount())
	}
	rc.flushCore(m.CPU(1), ge)
	flushEpochs(rc, 4)
	if o.Freed() {
		t.Fatal("object freed despite true count 1 (false zero)")
	}
	if o.GlobalCount() != 1 {
		t.Fatalf("global = %d, want 1", o.GlobalCount())
	}
}

func TestDirtyZeroDelaysFree(t *testing.T) {
	// Figure 1, epochs 4-8: the count returns to zero but was non-zero
	// during the epoch ("dirty zero"); review must requeue, not free.
	m, rc := newTestRC(2)
	o := rc.NewObj(1, nil)
	rc.Dec(m.CPU(0), o)
	rc.FlushAll() // global 0, queued at epoch E
	rc.Inc(m.CPU(1), o)
	rc.FlushAll() // global 1 while queued: marks dirty
	rc.Dec(m.CPU(1), o)
	rc.FlushAll() // global 0 again; first review sees dirty zero
	if o.Freed() {
		t.Fatal("freed on a dirty zero")
	}
	flushEpochs(rc, 4) // requeued; clean for a full epoch now
	if !o.Freed() {
		t.Fatal("dirty zero never resolved to free")
	}
}

func TestWeakTryGetAlive(t *testing.T) {
	m, rc := newTestRC(2)
	o := rc.NewObj(1, nil)
	got := rc.TryGet(m.CPU(1), o)
	if got != o {
		t.Fatalf("TryGet = %v, want the object", got)
	}
	if rc.TrueCount(o) != 2 {
		t.Fatalf("TryGet did not increment: %d", rc.TrueCount(o))
	}
}

func TestWeakRevival(t *testing.T) {
	m, rc := newTestRC(2)
	o := rc.NewObj(1, nil)
	rc.Dec(m.CPU(0), o)
	rc.FlushAll() // queued, dying bit set
	got := rc.TryGet(m.CPU(1), o)
	if got != o {
		t.Fatal("TryGet failed to revive a dying object")
	}
	flushEpochs(rc, 6)
	if o.Freed() {
		t.Fatal("revived object was freed")
	}
	// Drop the revived reference; now it must die.
	rc.Dec(m.CPU(1), o)
	flushEpochs(rc, 6)
	if !o.Freed() {
		t.Fatal("object not freed after revival reference dropped")
	}
	if rc.TryGet(m.CPU(0), o) != nil {
		t.Fatal("TryGet returned a freed object")
	}
}

func TestTryGetPureReadWhenHealthy(t *testing.T) {
	m, rc := newTestRC(4)
	o := rc.NewObj(1, nil)
	// Warm each core's cache of the weak line.
	for i := 0; i < 4; i++ {
		rc.TryGet(m.CPU(i), o)
	}
	m.ResetStats()
	for i := 0; i < 4; i++ {
		for j := 0; j < 100; j++ {
			rc.TryGet(m.CPU(i), o)
		}
	}
	if tr := m.TotalStats().Transfers; tr != 0 {
		t.Errorf("healthy TryGet caused %d transfers, want 0", tr)
	}
}

func TestCollisionEviction(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(1))
	rc := NewSized(m, 1) // every object collides
	a := rc.NewObj(0, nil)
	b := rc.NewObj(0, nil)
	c := m.CPU(0)
	rc.Inc(c, a)
	rc.Inc(c, b) // evicts a's delta to the global count
	if a.GlobalCount() != 1 {
		t.Fatalf("collision eviction lost a's delta: %d", a.GlobalCount())
	}
	if c.Stats().RefcacheEvicts != 1 {
		t.Fatalf("RefcacheEvicts = %d", c.Stats().RefcacheEvicts)
	}
	if rc.TrueCount(b) != 1 {
		t.Fatalf("b true count = %d", rc.TrueCount(b))
	}
}

func TestMaintainRespectsEpochLength(t *testing.T) {
	m, rc := newTestRC(1)
	o := rc.NewObj(0, nil)
	c := m.CPU(0)
	rc.Inc(c, o)
	rc.Maintain(c) // too early: virtual clock hasn't advanced an epoch
	if o.GlobalCount() != 0 {
		t.Fatal("Maintain flushed before the epoch elapsed")
	}
	c.Tick(m.Config().EpochCycles + 1)
	rc.Maintain(c)
	if o.GlobalCount() != 1 {
		t.Fatal("Maintain did not flush after the epoch elapsed")
	}
}

func TestConcurrentIncDecStress(t *testing.T) {
	const ncores = 8
	m, rc := newTestRC(ncores)
	freed := make(chan struct{})
	o := rc.NewObj(1, func(*hw.CPU, *Obj) { close(freed) })
	var wg sync.WaitGroup
	for i := 0; i < ncores; i++ {
		wg.Add(1)
		go func(c *hw.CPU) {
			defer wg.Done()
			for k := 0; k < 5000; k++ {
				rc.Inc(c, o)
				rc.Dec(c, o)
				c.Tick(100)
				rc.Maintain(c)
			}
		}(m.CPU(i))
	}
	wg.Wait()
	select {
	case <-freed:
		t.Fatal("object freed while base reference held")
	default:
	}
	rc.Dec(m.CPU(0), o)
	flushEpochs(rc, 6)
	if !o.Freed() {
		t.Fatal("object not reclaimed after final dec")
	}
	if rc.TrueCount(o) != 0 {
		t.Fatalf("final true count %d", rc.TrueCount(o))
	}
}

func TestConcurrentTryGetVsFree(t *testing.T) {
	// Race TryGet against the reclamation path; the winner is decided by
	// the CAS on the weak state word and the object is freed exactly once.
	// Each simulated core is driven by exactly one goroutine.
	const rounds = 100
	m, rc := newTestRC(2)
	epoch := m.Config().EpochCycles
	for r := 0; r < rounds; r++ {
		var frees atomic.Int32
		o := rc.NewObj(1, func(*hw.CPU, *Obj) { frees.Add(1) })
		rc.Dec(m.CPU(0), o)
		rc.FlushAll() // queued, dying bit set
		var got *Obj
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // core 1: attempt revival, then run epochs
			defer wg.Done()
			c := m.CPU(1)
			got = rc.TryGet(c, o)
			for i := 0; i < 20; i++ {
				c.Tick(epoch)
				rc.Maintain(c)
			}
		}()
		go func() { // core 0: epoch maintenance (may free the object)
			defer wg.Done()
			c := m.CPU(0)
			for i := 0; i < 20; i++ {
				c.Tick(epoch)
				rc.Maintain(c)
			}
		}()
		wg.Wait()
		if got != nil {
			if o.Freed() {
				t.Fatalf("round %d: TryGet returned a freed object", r)
			}
			rc.Dec(m.CPU(1), got)
		}
		flushEpochs(rc, 6)
		if n := frees.Load(); !o.Freed() || n != 1 {
			t.Fatalf("round %d: freed %d times, want 1", r, n)
		}
	}
}

func TestTrueCountConservationQuick(t *testing.T) {
	// Property: for any sequence of (core, object, inc|dec) ops, the true
	// count equals the model count, before and after any flushes; objects
	// left at zero are freed within four epochs and others never are.
	type op struct {
		Core  uint8
		ObjID uint8
		Inc   bool
		Flush bool
	}
	const dead = -1 // model value: observed freed
	f := func(ops []op) bool {
		const ncores, nobjs = 4, 8
		m, rc := newTestRC(ncores)
		objs := make([]*Obj, nobjs)
		model := make([]int64, nobjs)
		for i := range objs {
			objs[i] = rc.NewObj(1, nil)
			model[i] = 1
		}
		for _, o := range ops {
			i := int(o.ObjID) % nobjs
			c := m.CPU(int(o.Core) % ncores)
			switch {
			case model[i] == dead:
				// A freed object is only reachable weakly, and
				// TryGet must refuse it.
				if rc.TryGet(c, objs[i]) != nil {
					return false
				}
			case model[i] == 0:
				// The count may have hit zero: the only legal
				// way back up is through the weak reference
				// (a direct Inc on a zero-count object is a
				// use-after-free).
				if got := rc.TryGet(c, objs[i]); got != nil {
					model[i]++
				} else {
					model[i] = dead
				}
			case o.Inc:
				rc.Inc(c, objs[i])
				model[i]++
			default:
				rc.Dec(c, objs[i])
				model[i]--
			}
			if o.Flush {
				rc.FlushAll()
			}
		}
		for i, o := range objs {
			if model[i] == dead {
				continue
			}
			if o.Freed() && model[i] > 0 {
				return false // freed with live references
			}
			if !o.Freed() && rc.TrueCount(o) != model[i] {
				return false
			}
		}
		flushEpochs(rc, 8)
		for i, o := range objs {
			switch {
			case model[i] == dead && !o.Freed():
				return false
			case model[i] > 0 && o.Freed():
				return false
			case model[i] == 0 && !o.Freed():
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNewSizedValidation(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(1))
	defer func() {
		if recover() == nil {
			t.Fatal("NewSized accepted a non-power-of-two size")
		}
	}()
	NewSized(m, 3)
}

// A count adjusted through a dead reference — nil, or an object whose free
// callback already ran, as a released frame's count has — is a use-after-free
// in the caller. It must fail under its own name and say which core did it,
// not as a nil dereference inside the delta cache.
func TestIncDecOnDeadObjectPanicsByName(t *testing.T) {
	m, rc := newTestRC(4)
	freed := rc.NewObj(1, nil)
	rc.Dec(m.CPU(0), freed)
	flushEpochs(rc, 6)
	if !freed.Freed() {
		t.Fatal("setup: object not freed")
	}
	for name, op := range map[string]func(){
		"Dec nil":   func() { rc.Dec(m.CPU(3), nil) },
		"Inc nil":   func() { rc.Inc(m.CPU(3), nil) },
		"Dec freed": func() { rc.Dec(m.CPU(3), freed) },
		"Inc freed": func() { rc.Inc(m.CPU(3), freed) },
	} {
		func() {
			defer func() {
				const want = "refcache: Inc/Dec on dead object (core 3)"
				if got := recover(); got != want {
					t.Errorf("%s: panic %v, want %q", name, got, want)
				}
			}()
			op()
		}()
	}
}

// The deletion CAS is the only way out of a lifetime: once it has won, no
// setDying or second kill can bring the state word back, and only InitObj
// starts a new lifetime — which can again be killed exactly once.
func TestTryKillSucceedsOncePerLifetime(t *testing.T) {
	m, rc := newTestRC(2)
	c := m.CPU(0)
	var o Obj
	for life := 0; life < 3; life++ {
		rc.InitObj(&o, 0, nil)
		if o.tryKill(c) {
			t.Fatalf("life %d: killed an object whose dying bit was clear", life)
		}
		o.setDying(c, true)
		if !o.tryKill(c) {
			t.Fatalf("life %d: kill of a dying object failed", life)
		}
		for i := 0; i < 3; i++ {
			o.setDying(c, false)
			o.setDying(c, true)
			if o.tryKill(c) {
				t.Fatalf("life %d: killed twice", life)
			}
		}
		if !o.Freed() || rc.TryGet(c, &o) != nil {
			t.Fatalf("life %d: killed object is not dead", life)
		}
	}
}

// A TryGet that finds its object dead charges one read of the weak line and
// nothing else: no write (the killer still caches the line), and no count
// adjustment (the core's clock moves by exactly one local hit once the line
// is cached).
func TestTryGetAfterKillChargesOneRead(t *testing.T) {
	m, rc := newTestRC(2)
	o := rc.NewObj(1, nil)
	rc.Dec(m.CPU(0), o)
	flushEpochs(rc, 6) // core 0 queued it, so core 0's review kills it
	if !o.Freed() {
		t.Fatal("setup: object not freed")
	}
	c := m.CPU(1)
	touches := func(s hw.Stats) uint64 { return s.LocalHits + s.ColdMisses + s.Transfers }
	for i, want := range []struct{ touches, transfers uint64 }{{1, 1}, {1, 0}} {
		before, now := *c.Stats(), c.Now()
		if got := rc.TryGet(c, o); got != nil {
			t.Fatalf("TryGet %d returned a dead object", i)
		}
		after := *c.Stats()
		if n := touches(after) - touches(before); n != want.touches {
			t.Errorf("TryGet %d touched %d lines, want %d", i, n, want.touches)
		}
		if n := after.Transfers - before.Transfers; n != want.transfers {
			t.Errorf("TryGet %d: %d transfers, want %d", i, n, want.transfers)
		}
		if i == 1 {
			if d := c.Now() - now; d != m.Config().LocalHit {
				t.Errorf("cached TryGet of a dead object cost %d cycles, want one local hit (%d)", d, m.Config().LocalHit)
			}
		}
	}
	killer := m.CPU(0)
	before := killer.Stats().Transfers
	killer.Read(&o.weakLine)
	if killer.Stats().Transfers != before {
		t.Error("TryGet of a dead object wrote the weak line: its killer lost its copy")
	}
	if n := rc.TrueCount(o); n != 0 {
		t.Errorf("TryGet of a dead object adjusted its count to %d", n)
	}
}

// reviewWorld is one core's Refcache with a review queue several blocks
// long: objects queued at epoch 1 and a tail queued at epoch 2, every fifth
// a dirty zero, every fifth a count that came back, and a free callback
// that, for every fourth object it frees, queues a fresh one mid-pass (as
// freeing a radix node Decs its parent). freed logs object IDs in free
// order.
type reviewWorld struct {
	rc    *Refcache
	cpu   *hw.CPU
	freed []uint64
}

func newReviewWorld() *reviewWorld {
	m := hw.NewMachine(hw.TestConfig(1))
	w := &reviewWorld{rc: New(m), cpu: m.CPU(0)}
	var free func(*hw.CPU, *Obj)
	free = func(cpu *hw.CPU, o *Obj) {
		w.freed = append(w.freed, o.id)
		if o.id%4 == 0 {
			w.rc.evict(cpu, w.rc.NewObj(1, free), -1)
		}
	}
	queue := func(epoch uint64, n int) {
		w.rc.epoch.Store(epoch)
		for i := range n {
			o := w.rc.NewObj(1, free)
			w.rc.evict(w.cpu, o, -1) // zero: queued
			switch i % 5 {
			case 0: // dirty zero
				w.rc.evict(w.cpu, o, +1)
				w.rc.evict(w.cpu, o, -1)
			case 1: // no longer zero
				w.rc.evict(w.cpu, o, +1)
			}
		}
	}
	queue(1, 2500)
	queue(2, 700)
	return w
}

// oldReview is reviewCore as it was on a plain slice: re-queued entries
// written over the front, the too-recent tail copied down behind them, and
// whatever free callbacks queued during the pass appended after that.
func oldReview(rc *Refcache, cpu *hw.CPU, q []reviewEntry) []reviewEntry {
	cs := &rc.cores[cpu.ID()]
	now := rc.epoch.Load()
	w, i := 0, 0
	for ; i < len(q); i++ {
		re := q[i]
		if now < re.epoch+2 {
			break
		}
		o := re.obj
		o.mu.Lock()
		o.onReview = false
		switch {
		case o.refcnt != 0:
			o.setDying(cpu, false)
		case o.dirty || !o.tryKill(cpu):
			o.dirty = false
			o.onReview = true
			o.setDying(cpu, true)
			q[w] = reviewEntry{obj: o, epoch: now}
			w++
		default:
			if o.free != nil {
				o.free(cpu, o)
			}
		}
		o.mu.Unlock()
	}
	w += copy(q[w:], q[i:])
	clear(q[w:])
	kept := q[:w]
	for j := range cs.review.Len() {
		kept = append(kept, *cs.review.At(j))
	}
	cs.review.Reset()
	return kept
}

func reviewIDs(q []reviewEntry) []uint64 {
	ids := make([]uint64, len(q))
	for i, re := range q {
		ids[i] = re.obj.id
	}
	return ids
}

// Moving a review queue onto blocks must not move a single free: pass after
// pass, the queue frees what the slice version freed, in the same order, and
// leaves the same queue behind.
func TestReviewOrderAcrossBlocks(t *testing.T) {
	got, want := newReviewWorld(), newReviewWorld()
	q := &got.rc.cores[0].review
	if q.Blocks() < 3 {
		t.Fatalf("review queue of %d entries in %d blocks, want several", q.Len(), q.Blocks())
	}
	var ref []reviewEntry
	for j := range want.rc.cores[0].review.Len() {
		ref = append(ref, *want.rc.cores[0].review.At(j))
	}
	want.rc.cores[0].review.Reset()

	for now := uint64(3); q.Len() > 0 || len(ref) > 0; now++ {
		if now > 20 {
			t.Fatalf("queues not drained by epoch 20: %d and %d entries left", q.Len(), len(ref))
		}
		got.rc.epoch.Store(now)
		got.rc.reviewCore(got.cpu)
		want.rc.epoch.Store(now)
		ref = oldReview(want.rc, want.cpu, ref)

		if !slices.Equal(got.freed, want.freed) {
			t.Fatalf("epoch %d: %d frees, want %d, or in another order", now, len(got.freed), len(want.freed))
		}
		var left []reviewEntry
		for j := range q.Len() {
			left = append(left, *q.At(j))
		}
		if !slices.Equal(reviewIDs(left), reviewIDs(ref)) {
			t.Fatalf("epoch %d: queue left behind differs from the slice version's", now)
		}
	}
	// 2 560 of the 3 200 reach a clean zero (the dirty ones a pass late);
	// anything freed beyond them was queued by a free callback mid-pass.
	if n := len(got.freed); n <= 2560 {
		t.Fatalf("%d objects freed: no free callback queued anything", n)
	}
}
