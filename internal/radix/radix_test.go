package radix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"radixvm/internal/hw"
	"radixvm/internal/refcache"
)

type val struct{ x int }

func cloneVal(v *val) *val { c := *v; return &c }

func newTree(ncores int) (*hw.Machine, *refcache.Refcache, *Tree[val]) {
	m := hw.NewMachine(hw.TestConfig(ncores))
	rc := refcache.New(m)
	return m, rc, NewCopy[val](m, rc)
}

// quiesce runs enough epochs for reclamation to cascade up the tree: each
// level's free defers the parent's count decrement to the next flush, so a
// full 4-level chain needs roughly four epochs per level.
func quiesce(rc *refcache.Refcache) {
	for i := 0; i < 20; i++ {
		rc.FlushAll()
	}
}

// setRange maps [lo,hi) to clones of v via the locked-range protocol, the
// way mmap does.
func setRange(t *Tree[val], cpu *hw.CPU, lo, hi uint64, v *val) {
	r := t.LockRange(cpu, lo, hi)
	for i := range r.Entries() {
		r.Entry(i).Set(cloneVal(v))
	}
	r.Unlock()
}

// clearRange unmaps [lo,hi), the way munmap does.
func clearRange(t *Tree[val], cpu *hw.CPU, lo, hi uint64) {
	r := t.LockRange(cpu, lo, hi)
	for i := range r.Entries() {
		r.Entry(i).Set(nil)
	}
	r.Unlock()
}

func TestLookupEmpty(t *testing.T) {
	m, _, tr := newTree(1)
	if v := tr.Lookup(m.CPU(0), 12345); v != nil {
		t.Fatalf("Lookup on empty tree = %v", v)
	}
}

func TestSetAndLookupSinglePage(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	setRange(tr, c, 42, 43, &val{7})
	got := tr.Lookup(c, 42)
	if got == nil || got.x != 7 {
		t.Fatalf("Lookup = %v", got)
	}
	if tr.Lookup(c, 41) != nil || tr.Lookup(c, 43) != nil {
		t.Fatal("neighbours mapped")
	}
}

func TestFoldedLargeRange(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	// A full aligned 512-page range folds into one interior slot: the
	// tree allocates the interior path (2 nodes) but no leaf nodes, so
	// 512 pages cost a single slot write.
	before := tr.NodesLive()
	setRange(tr, c, 512, 1024, &val{9})
	if grew := tr.NodesLive() - before; grew > 2 {
		t.Errorf("folded range allocated %d nodes, want <= 2 (no leaves)", grew)
	}
	for _, vpn := range []uint64{512, 700, 1023} {
		if got := tr.Lookup(c, vpn); got == nil || got.x != 9 {
			t.Fatalf("Lookup(%d) = %v", vpn, got)
		}
	}
	if tr.Lookup(c, 511) != nil || tr.Lookup(c, 1024) != nil {
		t.Fatal("fold bled outside the range")
	}
}

func TestHugeFoldedRange(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	// 2^27 pages (one root slot) map in O(1) slots.
	lo := span(3)
	hi := lo * 2
	setRange(tr, c, lo, hi, &val{1})
	if got := tr.Lookup(c, lo+12345); got == nil || got.x != 1 {
		t.Fatalf("Lookup inside huge fold = %v", got)
	}
	// Unmap a single page out of the middle: the fold splits, everything
	// else stays mapped.
	clearRange(tr, c, lo+1000, lo+1001)
	if tr.Lookup(c, lo+1000) != nil {
		t.Fatal("cleared page still mapped")
	}
	for _, vpn := range []uint64{lo, lo + 999, lo + 1001, hi - 1} {
		if got := tr.Lookup(c, vpn); got == nil || got.x != 1 {
			t.Fatalf("split lost page %d: %v", vpn, got)
		}
	}
}

func TestExpansionClonesPerPage(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	setRange(tr, c, 0, 512, &val{5}) // folded
	// Page-lock one page and mutate it; other pages must be unaffected.
	r := tr.LockPage(c, 100)
	e := r.Entry(0)
	if e.n.level != 0 {
		t.Fatal("LockPage did not expand to a leaf")
	}
	v := e.Value()
	if v == nil || v.x != 5 {
		t.Fatalf("leaf value = %v", v)
	}
	v.x = 99
	e.Set(v)
	r.Unlock()
	if got := tr.Lookup(c, 101); got == nil || got.x != 5 {
		t.Fatalf("mutation leaked to sibling page: %v", got)
	}
	if got := tr.Lookup(c, 100); got == nil || got.x != 99 {
		t.Fatalf("mutation lost: %v", got)
	}
}

func TestLockPageOnUnmapped(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	r := tr.LockPage(c, 777)
	if r.Entry(0).Value() != nil {
		t.Fatal("unmapped page has a value")
	}
	// An unmapped page locks at the interior level, without expansion.
	if r.Entry(0).n.level == 0 {
		t.Fatal("unmapped page lock expanded the tree")
	}
	r.Unlock()
	if tr.NodesLive() != 1 {
		t.Fatalf("NodesLive = %d, want 1 (root only)", tr.NodesLive())
	}
}

func TestRangeEntriesOrderedAndComplete(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	lo, hi := uint64(500), uint64(2100) // straddles several slots/levels
	r := tr.LockRange(c, lo, hi)
	covered := lo
	for i := range r.Entries() {
		e := r.Entry(i)
		if e.Lo != covered {
			t.Fatalf("entry %d starts at %d, want %d", i, e.Lo, covered)
		}
		if e.Hi <= e.Lo {
			t.Fatalf("entry %d empty span", i)
		}
		covered = e.Hi
	}
	if covered != hi {
		t.Fatalf("entries cover up to %d, want %d", covered, hi)
	}
	r.Unlock()
}

func TestNodeReclamationAfterClear(t *testing.T) {
	m, rc, tr := newTree(1)
	c := m.CPU(0)
	setRange(tr, c, 1000, 1010, &val{3})
	if tr.NodesLive() <= 1 {
		t.Fatal("expected leaf nodes to be allocated")
	}
	clearRange(tr, c, 1000, 1010)
	quiesce(rc)
	if tr.NodesLive() != 1 {
		t.Fatalf("empty nodes not reclaimed: NodesLive = %d", tr.NodesLive())
	}
	// The tree must still work after reclamation.
	setRange(tr, c, 1000, 1010, &val{4})
	if got := tr.Lookup(c, 1005); got == nil || got.x != 4 {
		t.Fatalf("reuse after reclaim failed: %v", got)
	}
}

func TestRevivalBeforeReclamation(t *testing.T) {
	// Empty a node, then reuse it before Refcache deletes it: the weak
	// reference must revive the node instead of leaving a dangling link.
	m, rc, tr := newTree(1)
	c := m.CPU(0)
	setRange(tr, c, 2000, 2001, &val{1})
	clearRange(tr, c, 2000, 2001)
	rc.FlushAll() // node's count is at zero, dying, but not yet freed
	setRange(tr, c, 2000, 2001, &val{2})
	quiesce(rc)
	if got := tr.Lookup(c, 2000); got == nil || got.x != 2 {
		t.Fatalf("revived node lost mapping: %v", got)
	}
	if tr.NodesLive() <= 1 {
		t.Fatal("live node was reclaimed")
	}
}

func TestDisjointOpsNoCacheContention(t *testing.T) {
	// The paper's headline: after warm-up, operations on disjoint ranges
	// from different cores move no cache lines. Use ranges in different
	// top-level subtrees, spaced so each core's root slot sits on its own
	// cache line (the paper exempts false sharing at line granularity).
	const ncores = 4
	m, rc, tr := newTree(ncores)
	base := func(id int) uint64 { return uint64(id*slotsPerLine+4) * span(3) }
	for i := 0; i < ncores; i++ {
		c := m.CPU(i)
		setRange(tr, c, base(i), base(i)+8, &val{i}) // warm up paths
		clearRange(tr, c, base(i), base(i)+8)
	}
	quiesce(rc)
	// Re-create the leaves so steady-state ops don't expand/reclaim.
	for i := 0; i < ncores; i++ {
		setRange(tr, m.CPU(i), base(i), base(i)+8, &val{i})
	}
	m.ResetStats()
	hw.RunGang(m, ncores, func(c *hw.CPU, g *hw.Gang) {
		lo := base(c.ID())
		for k := 0; k < 200; k++ {
			setRange(tr, c, lo, lo+8, &val{k})
			if tr.Lookup(c, lo+4) == nil {
				t.Error("lost own mapping")
				return
			}
			clearRange(tr, c, lo, lo+8)
			setRange(tr, c, lo, lo+8, &val{k})
			g.Sync(c)
		}
	})
	if tr := m.TotalStats().Transfers; tr != 0 {
		t.Errorf("disjoint ops moved %d cache lines, want 0", tr)
	}
}

func TestOverlappingOpsSerialize(t *testing.T) {
	// Two cores fighting over one page must serialize in virtual time on
	// the slot lock.
	m, _, tr := newTree(2)
	const iters = 100
	hw.RunGangDet(m, 2, 0, func(c *hw.CPU, g *hw.Gang) {
		for k := 0; k < iters; k++ {
			r := tr.LockPage(c, 5000)
			c.Tick(1000) // critical section work
			v := r.Entry(0).Value()
			if v == nil {
				r.Entry(0).Set(&val{c.ID()})
			} else {
				r.Entry(0).Set(nil)
			}
			r.Unlock()
			g.Sync(c)
		}
	})
	// 200 critical sections of >= 1000 cycles each must not overlap.
	if got := m.MaxClock(); got < 2*iters*1000 {
		t.Errorf("critical sections overlapped: clock %d < %d", got, 2*iters*1000)
	}
}

func TestConcurrentDisjointStress(t *testing.T) {
	const ncores = 8
	m, rc, tr := newTree(ncores)
	hw.RunGang(m, ncores, func(c *hw.CPU, g *hw.Gang) {
		lo := uint64(c.ID()) * 10000
		for k := 0; k < 300; k++ {
			setRange(tr, c, lo, lo+16, &val{k})
			for p := lo; p < lo+16; p++ {
				if got := tr.Lookup(c, p); got == nil || got.x != k {
					t.Errorf("core %d lost page %d", c.ID(), p)
					return
				}
			}
			clearRange(tr, c, lo, lo+16)
			rc.Maintain(c)
			g.Sync(c)
		}
	})
	quiesce(rc)
	if tr.NodesLive() != 1 {
		t.Errorf("NodesLive = %d after full clear", tr.NodesLive())
	}
}

func TestConcurrentOverlappingStress(t *testing.T) {
	// All cores hammer the same small window with mixed page ops; the
	// lock protocol must keep the tree consistent (no lost updates
	// observable as torn values, no deadlock).
	const ncores = 4
	m, rc, tr := newTree(ncores)
	hw.RunGang(m, ncores, func(c *hw.CPU, g *hw.Gang) {
		rng := rand.New(rand.NewSource(int64(c.ID())))
		for k := 0; k < 400; k++ {
			vpn := uint64(rng.Intn(64))
			switch rng.Intn(3) {
			case 0:
				setRange(tr, c, vpn, vpn+uint64(rng.Intn(8))+1, &val{k})
			case 1:
				clearRange(tr, c, vpn, vpn+uint64(rng.Intn(8))+1)
			default:
				tr.Lookup(c, vpn)
			}
			rc.Maintain(c)
			g.Sync(c)
		}
	})
	// Clean up and verify reclamation converges.
	clearRange(tr, m.CPU(0), 0, 128)
	quiesce(rc)
	if tr.NodesLive() != 1 {
		t.Errorf("NodesLive = %d after clearing all", tr.NodesLive())
	}
}

func TestQuickAgainstMapModel(t *testing.T) {
	type op struct {
		Lo    uint16
		Len   uint8
		Val   uint8
		Clear bool
	}
	f := func(ops []op) bool {
		m, rc, tr := newTree(1)
		c := m.CPU(0)
		model := map[uint64]int{}
		for _, o := range ops {
			lo := uint64(o.Lo)
			hi := lo + uint64(o.Len%32) + 1
			if o.Clear {
				clearRange(tr, c, lo, hi)
				for p := lo; p < hi; p++ {
					delete(model, p)
				}
			} else {
				setRange(tr, c, lo, hi, &val{int(o.Val)})
				for p := lo; p < hi; p++ {
					model[p] = int(o.Val)
				}
			}
			rc.Maintain(c)
		}
		// Verify every page in the touched window.
		for p := uint64(0); p < 1<<16+40; p++ {
			got := tr.Lookup(c, p)
			want, ok := model[p]
			if ok != (got != nil) {
				return false
			}
			if ok && got.x != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestInvalidRangePanics(t *testing.T) {
	m, _, tr := newTree(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for inverted range")
		}
	}()
	tr.LockRange(m.CPU(0), 10, 10)
}

func TestBytesAccounting(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	if tr.Bytes() != NodeBytes {
		t.Fatalf("empty tree Bytes = %d", tr.Bytes())
	}
	setRange(tr, c, 0, 1, &val{1})
	if tr.Bytes() != uint64(tr.NodesLive())*NodeBytes {
		t.Fatal("Bytes inconsistent with NodesLive")
	}
	if tr.NodesEver() < tr.NodesLive() {
		t.Fatal("NodesEver < NodesLive")
	}
}
