package radix

import (
	"math/rand"
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

func countLiveGroups[V any](t *Tree[V]) int64 { return t.groupsLive }

// TestForkCopiesFrozenRootAsReader: a fork freezes the parent's root and
// copies it as a reader, so two cores forking one unchanged parent at one
// virtual instant each pay exactly one copy of the root — one ForkNodeCost
// bill, no lock, slot or divergence wait — and overlap. The parent copies its
// frozen root on its next locking operation, exactly once: its second copies
// nothing.
func TestForkCopiesFrozenRootAsReader(t *testing.T) {
	m, rc, tr, _, _, _ := forkSourceOn(t, 3)
	pz := m.Config().PageZero
	rootGroups := len(tr.root.dir.groups)
	quiesce(rc)
	at := m.MaxClock()
	for i := 0; i < 3; i++ {
		m.CPU(i).AdvanceTo(at)
	}
	m.ResetStats()
	kids := make([]*Tree[val], 3)
	runDet(m, 3, func(c *hw.CPU, _ *hw.Gang) {
		if id := c.ID(); id > 0 {
			kids[id] = tr.ForkLazy(c)
		}
	})
	for id := 1; id <= 2; id++ {
		y := m.CPU(id).Cycles()
		if got, want := y[hw.CauseMetaCopy], ForkNodeCost(pz, rootGroups); got != want || kids[id].NodesEver() != 1 {
			t.Errorf("fork on core %d copied %d nodes billed %d cycles, want one root copy billed %d", id, kids[id].NodesEver(), got, want)
		}
		for _, wait := range []hw.Cause{hw.CauseLockWait, hw.CauseSlotWait, hw.CauseDiverge} {
			if y[wait] != 0 {
				t.Errorf("fork on core %d charged %d cycles of %s", id, y[wait], wait)
			}
		}
	}
	// The later fork reads the root's lines right behind the earlier one,
	// one line transfer later at most; one that waited out the other's copy
	// would end a whole copy later.
	a, b := min(m.CPU(1).Elapsed(), m.CPU(2).Elapsed()), max(m.CPU(1).Elapsed(), m.CPU(2).Elapsed())
	if xfer := m.Config().SameSocketXfer; b > a+xfer {
		t.Errorf("forks at one instant took %d and %d cycles: one waited for the other", a, b)
	}

	c := m.CPU(0)
	unmapped := 40*span(Levels-1) + 100 // under an empty root slot: no path below the root to copy
	for i, want := range []int64{1, 0} {
		frozen, nodes := tr.root, tr.NodesEver()
		before := c.Cycles()[hw.CauseMetaCopy]
		tr.LockPage(c, unmapped).Unlock()
		copied := tr.NodesEver() - nodes
		if billed := c.Cycles()[hw.CauseMetaCopy] - before; copied != want || billed != uint64(want)*ForkNodeCost(pz, rootGroups) {
			t.Errorf("parent's LockPage %d after the forks copied %d nodes billed %d cycles, want %d", i+1, copied, billed, want)
		}
		if replaced := tr.root != frozen; replaced != (want == 1) {
			t.Errorf("parent's LockPage %d after the forks replaced its root: %v", i+1, replaced)
		}
	}
	for _, x := range append(kids[1:], tr) {
		x.Release(c)
	}
	quiesce(rc)
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
	for seed := range hw.Seeds(4) {
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
		hw.RunGang(m, forkers, seed, func(c *hw.CPU, g *hw.Gang) {
			for k := range children[c.ID()] {
				children[c.ID()][k] = tr.ForkLazy(c)
				rc.Maintain(c)
				g.Sync(c)
			}
		})
		for f := range children {
			for k, child := range children[f] {
				for ff := 0; ff < forkers; ff++ {
					for p := 0; p < 4; p++ {
						vpn := uint64(ff+1)*span(1) + uint64(p)
						got := child.Lookup(seedC, vpn)
						if got == nil || got.x != ff*100+p {
							t.Fatalf("seed %d: forker %d child %d vpn %d: got %+v, want x=%d", seed, f, k, vpn, got, ff*100+p)
						}
					}
				}
				if got := child.Lookup(seedC, foldLo+99); got == nil || got.x != 7777 {
					t.Fatalf("seed %d: forker %d child %d folded value: %+v", seed, f, k, got)
				}
				child.Release(seedC)
			}
		}
		// Every bit was released: a whole-space range lock goes through.
		r = tr.LockRange(seedC, 1, MaxVPN-1)
		r.Unlock()
	}
}

// TestForkVsConcurrentLockRange races forks against range lock/write cycles
// in a disjoint and an overlapping region, both inside single nodes: no
// deadlock, and no torn snapshot — the child must hold either the old or the
// new value of the whole overlapping range. (TestLazyForkRangeAtomicity has
// the range that spans two nodes.)
func TestForkVsConcurrentLockRange(t *testing.T) {
	for seed := range hw.Seeds(8) {
		m, rc, tr := newTree(2)
		write := func(c *hw.CPU, lo, n uint64, x int) {
			r := tr.LockRange(c, lo, lo+n)
			v := val{x: x}
			for i := range r.Entries() {
				r.Entry(i).SetClone(&v)
			}
			r.Unlock()
		}
		write(m.CPU(0), 100, 8, 1)
		hw.RunGang(m, 2, seed, func(c *hw.CPU, g *hw.Gang) {
			if c.ID() == 1 {
				for k := 0; k < 50; k++ {
					write(c, 100, 8, 10+k) // overlaps the forked range
					write(c, 5000, 4, k)   // disjoint
					rc.Maintain(c)
					g.Sync(c)
				}
				return
			}
			for k := 0; k < 20; k++ {
				child := tr.ForkLazy(c)
				first := child.Lookup(c, 100)
				if first == nil {
					t.Fatalf("seed %d: fork %d: seeded page missing", seed, k)
				}
				for vpn := uint64(101); vpn < 108; vpn++ {
					got := child.Lookup(c, vpn)
					if got == nil || got.x != first.x {
						t.Fatalf("seed %d: fork %d: torn snapshot at %d: %v vs %v", seed, k, vpn, got, first)
					}
				}
				child.Release(c)
				rc.Maintain(c)
				g.Sync(c)
			}
		})
	}
}

// TestRootsHaveNoFill: a node's uniform fill is fixed at its birth, NewCopy
// births its root empty, and a copy of a root — the child's at a fork, the
// parent's own at its next write — has a fill only if the source has one, so
// no root ever has one, however a fork family's op stream folds, expands and
// clears its slots. Nothing relies on it: a root's copy is a reader copy
// like any other node's, which copies a fill as it finds it. It stays as an
// oracle of the fill rule across the copies a family makes of its roots.
func TestRootsHaveNoFill(t *testing.T) {
	m, rc, tr := newTree(1)
	c := m.CPU(0)
	trees := []*Tree[val]{tr}
	rng := rand.New(rand.NewSource(9))
	for op := 0; op < 300; op++ {
		x := trees[rng.Intn(len(trees))]
		// Up to four root slots long: some ops fold whole root slots.
		lo := uint64(rng.Int63n(int64(MaxVPN - 4*span(Levels-1))))
		hi := lo + 1 + uint64(rng.Int63n(int64(4*span(rng.Intn(Levels)))))
		switch rng.Intn(5) {
		case 0:
			trees = append(trees, x.ForkLazy(c))
		case 1:
			clearRange(x, c, lo, hi)
		default:
			setRange(x, c, lo, hi, &val{op})
		}
		rc.Maintain(c)
	}
	for i, x := range trees {
		if x.root.uniSt != nil {
			t.Errorf("tree %d of %d: its root has a uniform fill", i, len(trees))
		}
	}
}

// TestForkRacesRootReplacement interleaves forks of one tree with range
// locks, page locks and lock-free lookups on it: every fork
// freezes the tree's root, the next locking operation replaces it with a
// native copy (ownRoot) while lookups still descend from the frozen one and
// later forks copy whichever root is current. Each snapshot holds one write
// of a range that spans two leaves (TestLazyForkRangeAtomicity's check), a
// page counter never goes backwards from one snapshot to the next, and the
// parent's lookups always find everything mapped.
func TestForkRacesRootReplacement(t *testing.T) {
	const ncores = 4
	const lo, hi = 504, 520       // 8 pages in one leaf node, 8 in the next
	page := 40*span(Levels-1) + 7 // under another root slot
	for seed := range hw.Seeds(4) {
		if forkRacesRootReplacement(t, seed, ncores, lo, hi, page); t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

func forkRacesRootReplacement(t *testing.T, seed uint64, ncores int, lo, hi, page uint64) {
	m, rc, tr := newTree(ncores)
	setRange(tr, m.CPU(0), lo, hi, &val{x: 1})
	setPage(tr, m.CPU(0), page, 0)
	hw.RunGang(m, ncores, seed, func(c *hw.CPU, g *hw.Gang) {
		const rounds = 120
		last := 0 // the page counter in the latest snapshot
		for k := 1; k <= rounds; k++ {
			switch c.ID() {
			case 0:
				if k%2 != 0 {
					break
				}
				child := tr.ForkLazy(c)
				first := child.Lookup(c, lo)
				if first == nil {
					t.Errorf("fork %d: page %d missing", k, lo)
					return
				}
				for vpn := uint64(lo + 1); vpn < hi; vpn++ {
					if got := child.Lookup(c, vpn); got == nil || got.x != first.x {
						t.Errorf("fork %d: torn snapshot at %d: %v vs page %d's %v", k, vpn, got, lo, first)
						return
					}
				}
				got := child.Lookup(c, page)
				if got == nil || got.x < last {
					t.Errorf("fork %d: page %d holds %v, an earlier snapshot %d", k, page, got, last)
					return
				}
				last = got.x
				child.Release(c)
			case 1:
				setRange(tr, c, lo, hi, &val{x: 10 + k})
			case 2:
				r := tr.LockPage(c, page)
				if v := r.Entry(0).Value(); v == nil || v.x != k-1 {
					t.Errorf("page %d holds %v before write %d", page, v, k)
				}
				r.Entry(0).Set(&val{x: k})
				r.Unlock()
			case 3:
				for _, vpn := range []uint64{lo, hi - 1, page} {
					if tr.Lookup(c, vpn) == nil {
						t.Errorf("lookup %d: page %d unmapped", k, vpn)
					}
				}
			}
			rc.Maintain(c)
			g.Sync(c)
		}
	})
	c := m.CPU(0)
	// Every bit of the parent is free: a whole-space range lock goes through.
	tr.LockRange(c, 1, MaxVPN-1).Unlock()
	tr.Release(c)
	quiesce(rc)
}
