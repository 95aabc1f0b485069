package radix

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/refcache"
)

// Tests for the node copy fork and first-touch divergence make (cloneShell,
// shell): a copy of a frozen source is born in the source's image, its groups
// present without storage until touched, and must come out exactly as the
// slot-by-slot construction made it, in which groups it has and in what every
// slot holds.

// nodeShape is what a tree can observe of a node: what each slot holds,
// which slot groups it has (with storage or born in an image without), and
// the uniform fill.
type nodeShape[V any] struct {
	Level  int
	Base   uint64
	Fill   *V
	Bits   groupSet
	Groups int
	Slots  [SlotsPerNode]slotShape[V]
}

type slotShape[V any] struct {
	Child *refcache.Obj
	Val   *V // a copy: two nodes compare by content
}

func shapeOfSlot[V any](st *slotState[V]) slotShape[V] {
	var s slotShape[V]
	if st != nil {
		s.Child = st.child
		if st.val != nil {
			v := *st.val
			s.Val = &v
		}
	}
	return s
}

// shapeOf records n's shape and checks its directory against itself: the
// dense slice has exactly one entry per group of the bitmap, the entries with
// storage are where get finds them, and only a copy born in an image has any
// without.
func shapeOf[V any](t *testing.T, n *node[V]) nodeShape[V] {
	t.Helper()
	s := nodeShape[V]{Level: n.level, Base: n.base}
	if n.uniSt != nil {
		v := *n.uniSt.val
		s.Fill = &v
	}
	if d := n.dir; d != nil {
		s.Bits = d.bits
		s.Groups = len(d.groups)
		if d.bits.count() != len(d.groups) {
			t.Fatalf("directory bitmap names %d groups, slice holds %d", d.bits.count(), len(d.groups))
		}
		last := -1
		n.forEachGroup(func(gi int, g *slotGroup[V]) {
			if g == nil || d.get(gi) != g || gi <= last {
				t.Fatalf("directory slice out of step with its bitmap at group %d", gi)
			}
			last = gi
		})
		if realized := int(countGroups(n)); realized > s.Groups || (realized < s.Groups && n.img == nil) {
			t.Fatalf("%d of %d groups have storage (born in an image: %v)", realized, s.Groups, n.img != nil)
		}
	}
	for idx := range s.Slots {
		s.Slots[idx] = shapeOfSlot(n.peek(idx))
	}
	return s
}

// insertGroup publishes g as n's group gi the way single-group
// materialization used to: by copying the directory around it.
func insertGroup(n *node[val], gi int, g *slotGroup[val]) {
	var set groupSet
	old := n.dir
	if old != nil {
		set = old.bits
	}
	set.add(gi)
	nd := newGroupDirOf[val](set)
	for i := 0; i < groupsPerNode; i++ {
		if i == gi {
			*nd.entry(i) = g
		} else if e := old.entry(i); e != nil {
			*nd.entry(i) = *e
		}
	}
	n.dir = nd
}

// copiedSlotBySlot builds what linkCopy made of src before directories were
// presized: slots visited in ascending order, a group allocated on its own
// and inserted by copying the directory (insertGroup) the first time a slot
// needs one. A slot needs a group when it diverges from the copy's uniform
// fill: an empty slot in a filled node, a child link, a materialized value.
// It returns the copy and the number of groups it allocated.
func copiedSlotBySlot(src *node[val]) (*node[val], int) {
	dst := &node[val]{level: src.level, base: src.base}
	if src.uniSt != nil {
		dst.uniVal = *src.uniSt.val
		dst.uniStore = slotState[val]{val: &dst.uniVal}
		dst.uniSt = &dst.uniStore
	}
	made := 0
	group := func(gi int) *slotGroup[val] {
		if g := dst.groupLoad(gi); g != nil {
			return g
		}
		g := new(slotGroup[val])
		insertGroup(dst, gi, g)
		made++
		return g
	}
	for idx := 0; idx < SlotsPerNode; idx++ {
		gi, j := idx/slotsPerLine, idx%slotsPerLine
		sg := src.groupLoad(gi)
		st := src.peek(idx)
		switch {
		case st == nil:
			if dst.uniSt != nil {
				group(gi).sts[j] = nil
			}
		case st.child != nil:
			g := group(gi)
			g.slab[j] = slotState[val]{child: st.child}
			g.sts[j] = &g.slab[j]
		case sg == nil:
			// Uniform fill: the copy's header stands for it.
		default:
			g := group(gi)
			g.vals[j] = *st.val
			g.slab[j] = slotState[val]{val: &g.vals[j]}
			g.sts[j] = &g.slab[j]
		}
	}
	return dst, made
}

// childOf returns the node n's slot idx links.
func childOf(t *testing.T, n *node[val], idx int) *node[val] {
	t.Helper()
	st := n.peek(idx)
	if st == nil || st.child == nil {
		t.Fatalf("level-%d node has no child at slot %d", n.level, idx)
	}
	return st.child.Data.(*node[val])
}

// descend returns the nodes on the path from the root to vpn's leaf.
func descend(t *testing.T, tr *Tree[val], vpn uint64) []*node[val] {
	t.Helper()
	path := []*node[val]{tr.root}
	for n := tr.root; n.level > 0; {
		n = childOf(t, n, n.slotIndex(vpn))
		path = append(path, n)
	}
	return path
}

// setPage maps the single page vpn, expanding down to its leaf as mmap of
// one page does (LockPage would stop at an empty interior slot).
func setPage(tr *Tree[val], c *hw.CPU, vpn uint64, x int) {
	r := tr.LockRange(c, vpn, vpn+1)
	r.Entry(0).SetClone(&val{x: x})
	r.Unlock()
}

// forkSource builds a parent whose nodes cover every case the copy loop
// distinguishes, and returns the pages whose paths hold them:
//
//   - full: a leaf born uniform from a folded mapping with every page then
//     faulted (all 128 groups materialized over a fill) — the template leaf
//     a fleet child diverges;
//   - sparse: a leaf born empty holding a few pages, one of them unmapped
//     again (a materialized group with nothing in it, which the copy must
//     not mirror);
//   - holed: a leaf born uniform with a few pages touched and one unmapped
//     (diverged to empty over a fill).
//
// Their ancestors are interior nodes without a fill that hold child links,
// empty slots and a folded value.
func forkSource(t testing.TB) (m *hw.Machine, rc *refcache.Refcache, tr *Tree[val], full, sparse, holed uint64) {
	return forkSourceOn(t, 1)
}

// forkSourceOn is forkSource on a machine of ncores cores, built by core 0.
func forkSourceOn(t testing.TB, ncores int) (m *hw.Machine, rc *refcache.Refcache, tr *Tree[val], full, sparse, holed uint64) {
	m, rc, tr = newTree(ncores)
	c := m.CPU(0)
	full, sparse, holed = 8*span(1), 9*span(1), 11*span(1)

	r := tr.LockRange(c, full, full+span(1))
	r.Entry(0).SetClone(&val{x: 1})
	r.Unlock()
	for v := full; v < full+span(1); v++ {
		r = tr.LockPage(c, v)
		r.Entry(0).Value().x = int(v)
		r.Entry(0).Set(r.Entry(0).Value())
		r.Unlock()
	}

	for _, off := range []uint64{0, 5, 6, 300, 511} {
		setPage(tr, c, sparse+off, int(off))
	}
	clearRange(tr, c, sparse+300, sparse+301)

	r = tr.LockRange(c, holed, holed+span(1))
	r.Entry(0).SetClone(&val{x: 2})
	r.Unlock()
	for _, off := range []uint64{3, 64, 65, 510} {
		r = tr.LockPage(c, holed+off)
		r.Entry(0).Value().x = int(off)
		r.Entry(0).Set(r.Entry(0).Value())
		r.Unlock()
	}
	clearRange(tr, c, holed+64, holed+65)

	// A folded value beside the links in the level-1 node.
	r = tr.LockRange(c, 13*span(1), 14*span(1))
	r.Entry(0).SetClone(&val{x: 3})
	r.Unlock()
	return m, rc, tr, full, sparse, holed
}

// TestCopyEqualsSlotBySlotCopy: every node a lazy fork copies — the root at
// fork time, the path nodes and leaves at first touch — equals the node the
// slot-by-slot construction builds from the same source, in slot contents,
// directory and group count. Every copy is born in its source's image: the
// root's copy has no group with storage at the fork, and a path copy has
// storage only in the groups the touch went through. A second round copies
// into recycled nodes that bring groups of their own.
func TestCopyEqualsSlotBySlotCopy(t *testing.T) {
	for _, recycled := range []bool{false, true} {
		m, rc, tr, full, sparse, holed := forkSource(t)
		c := m.CPU(0)
		child := tr.ForkLazy(c)

		// check compares got, the child's copy of src, with the slot-by-slot
		// copy and returns the groups that one allocated. An interior copy's
		// link to the next node on the path has already been replaced by
		// that node's copy; relinked names its slot.
		check := func(what string, src, got *node[val], relinked int) int {
			t.Helper()
			ref, made := copiedSlotBySlot(src)
			want, have := shapeOf(t, ref), shapeOf(t, got)
			if relinked >= 0 {
				want.Slots[relinked], have.Slots[relinked] = slotShape[val]{}, slotShape[val]{}
			}
			if !reflect.DeepEqual(want, have) {
				t.Errorf("recycled=%v: copy of %s differs from the slot-by-slot copy:\n got groups=%d bits=%x\nwant groups=%d bits=%x",
					recycled, what, have.Groups, have.Bits, want.Groups, want.Bits)
			}
			return made
		}
		groups := check("the root", tr.root, child.root, -1)
		if got := child.GroupsEver(); got != 0 || groups == 0 {
			t.Errorf("recycled=%v: the fork gave %d of the root copy's %d groups storage, want none", recycled, got, groups)
		}

		if recycled {
			// Give the child's pool nodes that carry a group of their own:
			// map and unmap a page whose path runs through slot 511 of three
			// fresh nodes, and let Refcache reclaim them. A copy that pops
			// one keeps its group only where the source has one too (the
			// full leaf does, at group 127) and fills the groups before it
			// in place.
			far := 3*span(3) - 1
			setPage(child, c, far, 9)
			clearRange(child, c, far, far+1)
			quiesce(rc)
			if child.PoolSize(c) < 3 {
				t.Fatalf("setup: %d nodes recycled, want 3", child.PoolSize(c))
			}
		}
		pooled, base := child.PoolSize(c), int(child.GroupsEver())

		for _, tc := range []struct {
			what string
			vpn  uint64
		}{{"the full leaf", full}, {"the sparse leaf", sparse + 5}, {"the holed leaf", holed + 3}} {
			src, before := descend(t, tr, tc.vpn), descend(t, child, tc.vpn)
			child.LockPage(c, tc.vpn).Unlock()
			got := descend(t, child, tc.vpn)
			for i := 1; i < len(src); i++ {
				switch {
				case got[i] == before[i]:
					// Already the child's own, copied by an earlier touch.
				case i == len(src)-1:
					groups += check(tc.what, src[i], got[i], -1)
				default:
					groups += check("an interior node above "+tc.what, src[i], got[i], src[i].slotIndex(tc.vpn))
				}
			}
		}
		if recycled {
			if child.PoolSize(c) != pooled-3 {
				t.Errorf("copies took %d nodes from the pool, want 3", pooled-child.PoolSize(c))
			}
			continue // a reused group is not materialized again
		}
		if got := int(child.GroupsEver()) - base; got == 0 || got > groups || child.groupsLive != child.GroupsEver() {
			t.Errorf("touches gave %d groups storage (%d live of %d ever), the slot-by-slot copies have %d",
				got, child.groupsLive, child.GroupsEver(), groups)
		}
	}
}

// TestDivergeFullLeafAllocs: copying a leaf with all 128 groups materialized
// is the node, its directory, the directory's slice, the Refcache object and
// the parent's new link, plus one run of groups for the page touched — not
// three allocations per group, nor a slab of 128 groups nobody will touch.
// The first child to copy the leaf also builds its image.
func TestDivergeFullLeafAllocs(t *testing.T) {
	m, _, tr, full, sparse, _ := forkSource(t)
	c := m.CPU(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The allocation counters are the process's: take the quietest of a few
	// children, each diverging its own copy of the leaf.
	least, fewest := ^uint64(0), ^uint64(0)
	for i := 0; i < 6; i++ {
		child := tr.ForkLazy(c)
		// Diverge the shared path through a neighbouring leaf first, so
		// the measured touch copies the full leaf and nothing else.
		child.LockPage(c, sparse).Unlock()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		child.LockPage(c, full+7).Unlock()
		runtime.ReadMemStats(&after)

		leaf := descend(t, child, full)[Levels-1]
		if leaf.tree != child || leaf.dir.bits.count() != groupsPerNode {
			t.Fatalf("setup: the touch did not copy a full leaf (groups=%d)", leaf.dir.bits.count())
		}
		if got := countGroups(leaf); got != realizeRun {
			t.Errorf("child %d: %d of the copy's groups have storage after one touch, want %d", i, got, realizeRun)
		}
		mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if i == 0 {
			t.Logf("the child that builds the image: %d allocations, %d B", mallocs, bytes)
			continue
		}
		least, fewest = min(least, mallocs), min(fewest, bytes)
	}
	t.Logf("later children: %d allocations, %d B", least, fewest)
	if least > 8 || fewest > 4096 {
		t.Errorf("diverging and touching a fully populated leaf made %d allocations of %d B, want <= 8 and <= 4096", least, fewest)
	}
}
