package radix

import (
	"sync"
	"testing"

	"radixvm/internal/hw"
)

// TestForkClonesValues: the divergence hook reports every distinct value a
// fork family copies, with the range it covers and a dst that starts out equal
// to src — a folded interior slot once over its whole span, leaf pages one by
// one — at the fork for what the root holds and at first touch for the rest.
// (TestLazyForkClonesValues checks what the two trees then read.)
func TestForkClonesValues(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	// A folded aligned subtree, a few scattered leaves, and a diverged
	// page inside the fold.
	lo := span(1) * 8
	r := tr.LockRange(c, lo, lo+span(1))
	r.Entry(0).SetClone(&val{x: 3})
	r.Unlock()
	seeded := []uint64{7, 1000, span(2) + 5}
	for _, vpn := range seeded {
		setRange(tr, c, vpn, vpn+1, &val{x: int(vpn)})
	}
	r = tr.LockPage(c, lo+9)
	r.Entry(0).Value().x = 42
	r.Unlock()

	covered := map[uint64]int{} // first page of a reported range -> its length
	tr.OnDiverge(func(_ *hw.CPU, flo, fhi uint64, src, dst *val) bool {
		if src.x != dst.x {
			t.Errorf("hook [%d,%d): src x=%d, dst x=%d", flo, fhi, src.x, dst.x)
		}
		covered[flo] = int(fhi - flo)
		return false
	})
	child := tr.ForkLazy(c)
	if len(covered) != 0 {
		t.Fatalf("the fork itself reported %v: the root holds only links", covered)
	}
	// The child touches one page under each seeded leaf: each path copy
	// reports the values of the nodes it copies.
	for _, vpn := range append(seeded, lo+9) {
		r = child.LockPage(c, vpn)
		r.Unlock()
	}
	for _, vpn := range append(seeded, lo+9) {
		if covered[vpn] != 1 {
			t.Errorf("page %d reported over %d pages, want its own", vpn, covered[vpn])
		}
	}
	if got := covered[lo]; got != int(span(1)) {
		t.Errorf("the expanded fold's fill reported over %d pages, want the leaf's %d", got, span(1))
	}
	// The parent's locks are all released: a whole-space range lock works.
	r = tr.LockRange(c, lo, lo+span(1))
	r.Unlock()
}

// TestForkPreservesCompactness: forking a mostly-uniform tree, and copying
// its nodes on first touch, must not materialize slot groups on either side
// beyond what the parent already diverged — the whole point of the structural
// clone over a replay of per-slot writes.
func TestForkPreservesCompactness(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	lo := span(1) * 4
	r := tr.LockRange(c, lo, lo+span(1)) // one folded interior slot
	r.Entry(0).SetClone(&val{x: 1})
	r.Unlock()
	before := tr.GroupsEver()
	child := tr.ForkLazy(c)
	r = child.LockRange(c, lo, lo+span(1)) // path-copies down to the folded slot
	r.Unlock()
	if grew := tr.GroupsEver() - before; grew != 0 {
		t.Errorf("fork materialized %d parent groups, want 0", grew)
	}
	// The child mirrors the parent's diverged groups exactly (the only
	// groups the parent has are the root's and the L2 node's slots holding
	// the child link / folded value).
	if pg, cg := countLiveGroups(tr), countLiveGroups(child); cg > pg {
		t.Errorf("child materialized %d groups, parent has %d — clone must not diverge further", cg, pg)
	}
	if got := child.Lookup(c, lo+5); got == nil || got.x != 1 {
		t.Fatalf("child folded value = %+v, want x=1", got)
	}
}

func countLiveGroups[V any](t *Tree[V]) int64 { return t.groupsLive.Load() }

// TestForkMidMaterializationBusyPeriod: a slot group that materializes while
// a fork holds the root's bits must restore gates whose busy period includes
// the fork's — merged at materialization from the node's in-progress-copy
// record — not just the uniform table's from before it. Without the merge, a
// locker whose clock sits between the fork's arrival and the (later) busy
// period recorded in the uniform table takes the waitGate inversion
// pass-through and under-waits the fork's critical section.
func TestForkMidMaterializationBusyPeriod(t *testing.T) {
	m, _, tr := newTree(3)
	c0, c1, c2 := m.CPU(0), m.CPU(1), m.CPU(2)
	other := 40*span(Levels-1) + 100 // a page under another root slot, unmapped

	// From a core whose clock is far ahead: a folded value over the whole
	// first root slot — a value the root copy reports to the hook mid-sweep —
	// and a first fork, which leaves the root's uniform table recording a
	// busy period around H.
	const H = 1_000_000
	c1.Tick(H)
	r := tr.LockPage(c1, 5)
	r.Entry(0).SetClone(&val{x: 1}) // folded: covers the whole root slot
	r.Unlock()
	tr.ForkLazy(c1).Release(c1)

	// Fork again from a core far behind (gang skew), and stretch the fork's
	// critical section past the locker's clock M, with L < M < H.
	const L = 10_000
	const M = 50_000
	c0.Tick(L)
	c2.Tick(M)
	stretched := false
	tr.OnDiverge(func(cpu *hw.CPU, lo, hi uint64, _, _ *val) bool {
		if hi-lo != span(Levels-1) || stretched {
			return false
		}
		// Mid-fork, the first root slot's bit held and the sweep on its way to
		// the others: a reader's touch materializes a root group that had no
		// storage. Its gates must carry the fork's busy period, begun around L.
		if got := tr.Lookup(c2, other); got != nil {
			t.Fatalf("page %d = %+v, want unmapped", other, got)
		}
		cpu.Tick(100_000) // stretch the fork's critical section past M
		stretched = true
		return false
	})
	tr.ForkLazy(c0)
	if !stretched {
		t.Fatal("the root's folded value was never reported")
	}
	forkEnd := c0.Now()

	// The locker arrived inside the fork's (merged) busy period, so it must
	// wait out the critical section — not pass through because the uniform
	// table's busyStart H postdates its clock.
	lr := tr.LockPage(c2, other)
	lr.Unlock()
	if got := c2.Now(); got < forkEnd {
		t.Fatalf("locker under-waited the fork's critical section: clock %d < fork end %d", got, forkEnd)
	}
}

// TestForkCostModel: fork bills cloned nodes by their logical size —
// header-sized ticks for uniform nodes plus a cache line per materialized
// group — never the full simulated page the pre-cost-model fork charged.
func TestForkCostModel(t *testing.T) {
	pz := uint64(2560)
	if got, want := ForkNodeCost(pz, 0), pz*ForkHeaderBytes/4096; got != want {
		t.Fatalf("uniform node cost = %d, want %d", got, want)
	}
	if ForkNodeCost(pz, 0) >= pz/2 {
		t.Fatalf("uniform header copy (%d cycles) not cheaper than half a page copy (%d)", ForkNodeCost(pz, 0), pz/2)
	}
	full := ForkNodeCost(pz, groupsPerNode)
	if full < 2*pz {
		t.Fatalf("fully diverged node (%d cycles) cheaper than its 8 KB of slots (%d)", full, 2*pz)
	}

	// The fork itself copies one node, the root, whatever the tree holds,
	// and bills it as a header plus the root's one materialized group.
	m, _, tr := newTree(1)
	c := m.CPU(0)
	pageZero := m.Config().PageZero
	lo := span(1) * 4
	r := tr.LockRange(c, lo, lo+span(1)) // one folded interior slot
	r.Entry(0).SetClone(&val{x: 1})
	r.Unlock()
	before := c.Now()
	child := tr.ForkLazy(c)
	delta := c.Now() - before
	if nodes := child.NodesEver(); nodes != 1 {
		t.Fatalf("fork copied %d nodes, want 1", nodes)
	}
	if delta >= pageZero {
		t.Errorf("fork cost %d cycles >= a flat page copy (%d)", delta, pageZero)
	}
	if delta < ForkNodeCost(pageZero, 1) {
		t.Errorf("fork cost %d cycles < the root's billed copy (%d)", delta, ForkNodeCost(pageZero, 1))
	}
}

// TestConcurrentForksConsistent races several cores forking one parent
// simultaneously and keeping what they forked — the spawn-server pattern: no
// deadlock at the root's locks, and every retained snapshot, however many
// generation bumps of the parent it has sat through, still reads exactly the
// parent's mappings; the parent's locks are all free afterwards.
// (TestLazyForkConcurrent has the children diverge and leave as they go.)
func TestConcurrentForksConsistent(t *testing.T) {
	const forkers = 4
	m, rc, tr := newTree(forkers)
	seedC := m.CPU(0)
	// Per-forker diverged leaves plus one shared folded range.
	for f := 0; f < forkers; f++ {
		for p := 0; p < 4; p++ {
			vpn := uint64(f+1)*span(1) + uint64(p)
			setRange(tr, seedC, vpn, vpn+1, &val{x: f*100 + p})
		}
	}
	foldLo := span(1) * 16
	r := tr.LockRange(seedC, foldLo, foldLo+span(1))
	r.Entry(0).SetClone(&val{x: 7777})
	r.Unlock()

	var children [forkers][10]*Tree[val]
	var wg sync.WaitGroup
	for f := 0; f < forkers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			c := m.CPU(f)
			for k := range children[f] {
				children[f][k] = tr.ForkLazy(c)
				rc.Maintain(c)
			}
		}(f)
	}
	wg.Wait()
	for f := range children {
		for k, child := range children[f] {
			for ff := 0; ff < forkers; ff++ {
				for p := 0; p < 4; p++ {
					vpn := uint64(ff+1)*span(1) + uint64(p)
					got := child.Lookup(seedC, vpn)
					if got == nil || got.x != ff*100+p {
						t.Fatalf("forker %d child %d vpn %d: got %+v, want x=%d", f, k, vpn, got, ff*100+p)
					}
				}
			}
			if got := child.Lookup(seedC, foldLo+99); got == nil || got.x != 7777 {
				t.Fatalf("forker %d child %d folded value: %+v", f, k, got)
			}
			child.Release(seedC)
		}
	}
	// Every bit was released: a whole-space range lock goes through.
	r = tr.LockRange(seedC, 1, MaxVPN-1)
	r.Unlock()
}

// TestForkVsConcurrentLockRange races forks against range lock/write cycles
// in a disjoint and an overlapping region, both inside single nodes: no
// deadlock, and no torn snapshot — the child must hold either the old or the
// new value of the whole overlapping range. (TestLazyForkRangeAtomicity has
// the range that spans two nodes.)
func TestForkVsConcurrentLockRange(t *testing.T) {
	m, rc, tr := newTree(2)
	c0, c1 := m.CPU(0), m.CPU(1)
	seed := func(c *hw.CPU, lo, n uint64, x int) {
		r := tr.LockRange(c, lo, lo+n)
		v := val{x: x}
		for i := range r.Entries() {
			r.Entry(i).SetClone(&v)
		}
		r.Unlock()
	}
	seed(c0, 100, 8, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 50; k++ {
			seed(c1, 100, 8, 10+k) // overlaps the forked range
			seed(c1, 5000, 4, k)   // disjoint
			rc.Maintain(c1)
		}
	}()
	for k := 0; k < 20; k++ {
		child := tr.ForkLazy(c0)
		first := child.Lookup(c0, 100)
		if first == nil {
			t.Fatalf("fork %d: seeded page missing", k)
		}
		for vpn := uint64(101); vpn < 108; vpn++ {
			got := child.Lookup(c0, vpn)
			if got == nil || got.x != first.x {
				t.Fatalf("fork %d: torn snapshot at %d: %v vs %v", k, vpn, got, first)
			}
		}
		child.Release(c0)
		rc.Maintain(c0)
	}
	wg.Wait()
}
