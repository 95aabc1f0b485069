package radix

import (
	"sync"
	"sync/atomic"
	"testing"

	"radixvm/internal/hw"
)

// TestLazyForkClonesValues: a lazy fork's child sees exactly the parent's
// mappings — folded, uniform-filled, and per-slot diverged alike — and
// writes on either side diverge privately, never leaking across the fork.
func TestLazyForkClonesValues(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	lo := span(1) * 8
	r := tr.LockRange(c, lo, lo+span(1))
	r.Entry(0).SetClone(&val{x: 3})
	r.Unlock()
	for _, vpn := range []uint64{7, 1000, span(2) + 5} {
		r = tr.LockPage(c, vpn)
		v := val{x: int(vpn)}
		r.Entry(0).SetClone(&v)
		r.Unlock()
	}
	r = tr.LockPage(c, lo+9)
	r.Entry(0).Value().x = 42
	r.Unlock()

	child := tr.ForkLazy(c)
	for _, vpn := range []uint64{7, 1000, span(2) + 5, lo, lo + 9, lo + 100} {
		p, ch := tr.Lookup(c, vpn), child.Lookup(c, vpn)
		switch {
		case p == nil && ch == nil:
		case p == nil || ch == nil:
			t.Fatalf("vpn %d: parent=%v child=%v", vpn, p, ch)
		case p.x != ch.x:
			t.Fatalf("vpn %d: parent x=%d child x=%d", vpn, p.x, ch.x)
		}
	}
	if got := child.Lookup(c, lo+9); got == nil || got.x != 42 {
		t.Fatalf("diverged page in fold: child sees %+v, want x=42", got)
	}
	// Writes diverge privately, in both directions.
	r = child.LockPage(c, 1000)
	r.Entry(0).Value().x = -1
	r.Entry(0).Set(r.Entry(0).Value())
	r.Unlock()
	if tr.Lookup(c, 1000).x != 1000 {
		t.Fatal("child divergence leaked into the parent")
	}
	r = tr.LockPage(c, 7)
	r.Entry(0).Value().x = -2
	r.Entry(0).Set(r.Entry(0).Value())
	r.Unlock()
	if child.Lookup(c, 7).x != 7 {
		t.Fatal("parent divergence leaked into the child")
	}
	// Both trees' locks are all free afterwards.
	r = tr.LockRange(c, lo, lo+span(1))
	r.Unlock()
	r = child.LockRange(c, lo, lo+span(1))
	r.Unlock()
}

// TestLazyForkIsOrderOne: ForkLazy's virtual-time cost is O(root) — the same
// for a parent of 64 leaf nodes and of 1 024, because the fork itself copies
// one node and bumps a generation. The deferred copies are billed at
// divergence.
func TestLazyForkIsOrderOne(t *testing.T) {
	fork := func(leaves uint64) (*hw.CPU, *Tree[val], uint64) {
		m, _, tr := newTree(1)
		c := m.CPU(0)
		// One real per-page value every 512 pages (setRange expands down to a
		// leaf; LockPage+Set on an empty tree would install folded values).
		for i := uint64(0); i < leaves; i++ {
			vpn := i * span(1)
			setRange(tr, c, vpn, vpn+1, &val{x: int(i)})
		}
		before := c.Now()
		child := tr.ForkLazy(c)
		return c, child, c.Now() - before
	}
	c, child, small := fork(64)
	if _, _, large := fork(1024); small != large {
		t.Fatalf("fork cost %d cycles over 64 leaves, %d over 1024: want equal", small, large)
	}
	// The child's first write into a shared subtree pays the path-copy,
	// later writes to the same leaf are steady-state cheap.
	before := c.Now()
	r := child.LockPage(c, 0)
	r.Entry(0).Value().x = -1
	r.Unlock()
	first := c.Now() - before
	before = c.Now()
	r = child.LockPage(c, 0)
	r.Entry(0).Value().x = -2
	r.Unlock()
	second := c.Now() - before
	if first < second+ForkNodeCost(c.Machine().Config().PageZero, 0) {
		t.Fatalf("first write after fork cost %d cycles, second %d: divergence billing missing", first, second)
	}
}

// TestLazyForkRangeAtomicity: a multi-node range write racing a fork must be
// observed by the child entirely or not at all, even across node boundaries —
// whole-tree snapshot atomicity (lazy.go). The written range straddles the
// leaf-node boundary at page 512.
func TestLazyForkRangeAtomicity(t *testing.T) {
	m, rc, tr := newTree(2)
	c0, c1 := m.CPU(0), m.CPU(1)
	const lo, hi = 504, 520 // 8 pages in one leaf node, 8 in the next
	seed := func(c *hw.CPU, x int) {
		r := tr.LockRange(c, lo, hi)
		v := val{x: x}
		for i := range r.Entries() {
			r.Entry(i).SetClone(&v)
		}
		r.Unlock()
	}
	seed(c0, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 200; k++ {
			seed(c1, 10+k)
			rc.Maintain(c1)
		}
	}()
	for k := 0; k < 60; k++ {
		child := tr.ForkLazy(c0)
		first := child.Lookup(c0, lo)
		if first == nil {
			t.Fatalf("fork %d: seeded page missing", k)
		}
		for vpn := uint64(lo + 1); vpn < hi; vpn++ {
			got := child.Lookup(c0, vpn)
			if got == nil || got.x != first.x {
				t.Fatalf("fork %d: torn snapshot at %d: %v vs page %d's %v", k, vpn, got, lo, first)
			}
		}
		child.Release(c0)
		rc.Maintain(c0)
	}
	<-done
}

// TestLazyForkFootprint: FootprintBytes charges shared nodes to the tree
// that created them, so a fresh lazy child's footprint is one root header —
// not a copy of the parent's whole metadata — and diverging a single page
// grows it by at most one path of nodes.
func TestLazyForkFootprint(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	for i := uint64(0); i < 64; i++ {
		vpn := i * span(1)
		setRange(tr, c, vpn, vpn+1, &val{x: int(i)})
	}
	parentFP := tr.FootprintBytes()
	parentNodes := tr.NodesLive()
	child := tr.ForkLazy(c)
	if got := tr.FootprintBytes(); got != parentFP {
		t.Fatalf("parent footprint changed across lazy fork: %d -> %d", parentFP, got)
	}
	if got := child.NodesLive(); got != 1 {
		t.Fatalf("fresh lazy child owns %d nodes, want 1 (the root copy)", got)
	}
	rootOnly := child.FootprintBytes()
	if rootOnly*8 > parentFP {
		t.Fatalf("fresh lazy child footprint %d bytes, parent %d: child must be O(one node)", rootOnly, parentFP)
	}
	// Diverge one leaf path: the child pays for at most Levels-1 more nodes
	// (the path copies), a handful of node headers — not O(tree).
	r := child.LockPage(c, 0)
	r.Entry(0).Value().x = -1
	r.Unlock()
	if got := child.NodesLive(); got > int64(Levels) {
		t.Fatalf("one-page divergence left the child owning %d nodes, want <= %d", got, Levels)
	}
	diverged := child.FootprintBytes()
	if diverged*2 >= parentFP {
		t.Fatalf("child footprint %d not << parent %d after one divergence", diverged, parentFP)
	}
	if parentNodes != tr.NodesLive() {
		t.Fatalf("parent node count changed %d -> %d without a parent write", parentNodes, tr.NodesLive())
	}
}

// TestLazyForkReleaseBalance: every value copy the fork family creates is
// released exactly once. OnDiverge fires per deferred copy, OnRelease per
// dropped value; after both trees are torn down the books must balance:
// releases = diverged copies + the parent's original values.
func TestLazyForkReleaseBalance(t *testing.T) {
	m, rc, tr := newTree(1)
	c := m.CPU(0)
	var diverged, released atomic.Int64
	tr.OnDiverge(func(_ *hw.CPU, lo, hi uint64, _, _ *val) bool { diverged.Add(int64(hi - lo)); return false })
	tr.OnRelease(func(_ *hw.CPU, lo, hi uint64, _ *val) { released.Add(int64(hi - lo)) })

	const pages = 8
	for i := uint64(0); i < pages; i++ {
		setRange(tr, c, 100+i, 101+i, &val{x: int(i)})
	}
	child := tr.ForkLazy(c)
	// Diverge two pages in the child, one in the parent.
	for _, vpn := range []uint64{100, 101} {
		r := child.LockPage(c, vpn)
		r.Entry(0).Value().x = -1
		r.Unlock()
	}
	r := tr.LockPage(c, 102)
	r.Entry(0).Value().x = -2
	r.Unlock()

	child.Release(c)
	// The parent still sees everything after the child exits.
	for i := uint64(0); i < pages; i++ {
		want := int(i)
		if i == 102-100 {
			want = -2
		}
		if got := tr.Lookup(c, 100+i); got == nil || got.x != want {
			t.Fatalf("parent page %d after child release: %+v, want x=%d", 100+i, got, want)
		}
	}
	tr.Release(c)
	quiesce(rc)
	if released.Load() != diverged.Load()+pages {
		t.Fatalf("release balance: %d released, want %d diverged + %d originals",
			released.Load(), diverged.Load(), pages)
	}
}

// TestLazyForkConcurrent races several cores lazily forking one parent and
// diverging their children simultaneously — the spawn-server pattern. Every
// child must see exactly the parent's mappings, divergences stay private,
// and teardown keeps the tree usable.
func TestLazyForkConcurrent(t *testing.T) {
	const forkers = 4
	m, rc, tr := newTree(forkers)
	seedC := m.CPU(0)
	for f := 0; f < forkers; f++ {
		for p := 0; p < 4; p++ {
			vpn := uint64(f+1)*span(1) + uint64(p)
			setRange(tr, seedC, vpn, vpn+1, &val{x: f*100 + p})
		}
	}
	var wg sync.WaitGroup
	for f := 0; f < forkers; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			c := m.CPU(f)
			for k := 0; k < 10; k++ {
				child := tr.ForkLazy(c)
				for ff := 0; ff < forkers; ff++ {
					for p := 0; p < 4; p++ {
						vpn := uint64(ff+1)*span(1) + uint64(p)
						got := child.Lookup(c, vpn)
						if got == nil || got.x != ff*100+p {
							t.Errorf("forker %d child %d vpn %d: got %+v, want x=%d", f, k, vpn, got, ff*100+p)
							return
						}
					}
				}
				// Diverge a private page, then throw the child away.
				r := child.LockPage(c, uint64(f+1)*span(1))
				r.Entry(0).Value().x = -f
				r.Unlock()
				child.Release(c)
				rc.Maintain(c)
			}
		}(f)
	}
	wg.Wait()
	for f := 0; f < forkers; f++ {
		for p := 0; p < 4; p++ {
			vpn := uint64(f+1)*span(1) + uint64(p)
			got := tr.Lookup(seedC, vpn)
			if got == nil || got.x != f*100+p {
				t.Fatalf("parent vpn %d after the fork storm: %+v, want x=%d", vpn, got, f*100+p)
			}
		}
	}
	// Every bit is free: a whole-space range lock goes through.
	r := tr.LockRange(seedC, 1, MaxVPN-1)
	r.Unlock()
}

// siblingDivergences forks k children of a tree whose leaf full holds 512
// pages, then has cores 1..divergers each touch one page of its own child at
// one virtual instant, through run: runDet or RunGang. Every
// touch copies the same frozen path, leaf included. The hook arms the source
// the way vm's OnDiverge arms COW, and counts each page's shares the way it
// counts a frame's: 2 when it arms, 1 after. It returns the machine, its
// cycle meters reset at that instant, and the shares.
func siblingDivergences(t *testing.T, k, divergers int, run func(*hw.Machine, int, func(*hw.CPU, *hw.Gang))) (*hw.Machine, *[SlotsPerNode]atomic.Int64) {
	t.Helper()
	m, rc, tr, full, _, _ := forkSourceOn(t, k+1)
	shares := new([SlotsPerNode]atomic.Int64)
	tr.OnDiverge(func(c *hw.CPU, lo, hi uint64, src, dst *val) bool {
		wrote := markSource(c, lo, hi, src, dst)
		if hi-lo == 1 && lo >= full && lo < full+span(1) {
			if wrote {
				shares[lo-full].Add(2)
			} else {
				shares[lo-full].Add(1)
			}
		}
		return wrote
	})
	kids := make([]*Tree[val], k+1)
	for i := 1; i <= k; i++ {
		kids[i] = tr.ForkLazy(m.CPU(0))
	}
	quiesce(rc)
	at := m.MaxClock()
	for i := 0; i <= k; i++ {
		m.CPU(i).AdvanceTo(at)
	}
	m.ResetStats()
	run(m, k+1, func(c *hw.CPU, _ *hw.Gang) {
		if id := c.ID(); id >= 1 && id <= divergers {
			kids[id].LockPage(c, full+uint64(id)).Unlock()
		}
	})
	for i := 1; i <= divergers; i++ {
		if leaf := descend(t, kids[i], full)[Levels-1]; leaf.tree != kids[i] {
			t.Fatalf("child %d did not copy the leaf", i)
		}
	}
	return m, shares
}

// runDet is hw.RunGangDet in hw.RunGang's shape.
func runDet(m *hw.Machine, ncores int, fn func(*hw.CPU, *hw.Gang)) { hw.RunGangDet(m, ncores, 0, fn) }

// checkShares asserts that every page of the diverged leaf was armed once and
// copied by each of k divergences: 2 + (k-1) shares.
func checkShares(t *testing.T, shares *[SlotsPerNode]atomic.Int64, k int) {
	t.Helper()
	for p := range shares {
		if got := shares[p].Load(); got != int64(2+k-1) {
			t.Fatalf("page %d of the leaf has %d shares after %d divergences, want %d", p, got, k, 2+k-1)
		}
	}
}

// TestSiblingDivergencesOverlap: a copy of a frozen node is a reader, so k
// siblings diverging one frozen leaf at the same virtual instant overlap.
// Each finishes at its arrival plus its own copy cost and is charged no wait
// for another's sweep. The first costs exactly a divergence alone, and each
// later one reads every group line right behind the sibling before it, one
// line transfer later, and skips the arming writes, so it ends at most one
// transfer per earlier sibling after a divergence alone; a copy that waited
// out the previous one's sweep would end a whole divergence later. Each page
// is still armed exactly once.
func TestSiblingDivergencesOverlap(t *testing.T) {
	const k = 4
	solo, _ := siblingDivergences(t, k, 1, runDet)
	alone := solo.CPU(1).Elapsed()
	m, shares := siblingDivergences(t, k, k, runDet)
	checkShares(t, shares, k)
	xfer := m.Config().SameSocketXfer
	for i := 1; i <= k; i++ {
		c := m.CPU(i)
		y := c.Cycles()
		if got, bound := c.Elapsed(), alone+uint64(i-1)*xfer; got > bound {
			t.Errorf("core %d finished %d cycles after the shared arrival, want at most %d (a divergence alone takes %d): it waited for another's copy (%v)", i, got, bound, alone, y)
		}
		for _, wait := range []hw.Cause{hw.CauseDiverge, hw.CauseRootFork, hw.CauseSlotWait, hw.CauseLockWait} {
			if y[wait] != 0 {
				t.Errorf("core %d charged %d cycles of %s", i, y[wait], wait)
			}
		}
	}
	if got := m.CPU(1).Elapsed(); got != alone {
		t.Errorf("the first divergence took %d cycles, %d alone", got, alone)
	}
}

// TestSiblingDivergencesArmOnce is TestSiblingDivergencesOverlap's share
// count under real parallelism (and the race detector): the copies take the
// frozen leaf's bits in real time, so however the sweeps interleave, one hook
// call per page arms the source and every other adds one share.
func TestSiblingDivergencesArmOnce(t *testing.T) {
	const k = 4
	for round := 0; round < 4; round++ {
		_, shares := siblingDivergences(t, k, k, hw.RunGang)
		checkShares(t, shares, k)
	}
}
