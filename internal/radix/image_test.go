package radix

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"radixvm/internal/hw"
)

// Tests for copies born in an image (nodeImage): every copy of one frozen
// node shares one image and none writes it; an image that no longer
// describes its source is not used; realization is safe under concurrent
// touches; and a range lock materializes a node's groups in one step that
// leaves what one group at a time left.

// imageSnap is a deep copy of an image: pointers that are identities (the
// source's slot states, child links) by address (addr), values by content.
type imageSnap struct {
	Over   string
	Bits   groupSet
	Groups []imageGroupSnap
}

type imageGroupSnap struct {
	Src, Child [slotsPerLine]string
	Own        [slotsPerLine]bool // the born value lives in the image's slab
	Born, Vals [slotsPerLine]val
}

func snapImage(im *nodeImage[val]) imageSnap {
	s := imageSnap{Over: addr(im.over), Bits: im.bits, Groups: make([]imageGroupSnap, len(im.groups))}
	for k := range im.groups {
		ig, gs := &im.groups[k], &s.Groups[k]
		gs.Vals = ig.vals
		for j := range ig.sts {
			gs.Src[j] = addr(ig.src[j])
			gs.Child[j] = addr(ig.sts[j].child)
			if v := ig.sts[j].val; v != nil {
				gs.Own[j] = v == &ig.vals[j]
				gs.Born[j] = *v
			}
		}
	}
	return s
}

// addr is p's address, the identity imageSnap compares pointers by.
func addr(p any) string { return fmt.Sprintf("%p", p) }

// markingHook registers hooks shaped like the VM layer's: the copy is marked,
// and so is the source the first time it is copied (vm's OnDiverge arms COW on
// both), which the hook reports. What the hook leaves in dst depends on src
// alone.
func markingHook(tr *Tree[val]) {
	tr.OnDiverge(markSource)
}

const copiedMark, sharedMark = 1 << 20, 1 << 21

func markSource(_ *hw.CPU, _, _ uint64, src, dst *val) bool {
	dst.x = src.x&^sharedMark | copiedMark
	if src.x&sharedMark != 0 {
		return false
	}
	src.x |= sharedMark
	return true
}

// TestCopiesShareOneImmutableImage: every child that diverges one frozen leaf
// is born from the same image, and nothing a child then does to its copy —
// realizing every group, rewriting and clearing values, exiting — writes the
// image or the frozen source: deep copies of both taken after the first
// divergence still equal them at the end.
func TestCopiesShareOneImmutableImage(t *testing.T) {
	m, rc, tr, full, _, _ := forkSource(t)
	c := m.CPU(0)
	markingHook(tr)
	released := 0
	tr.OnRelease(func(_ *hw.CPU, lo, hi uint64, _ *val) { released += int(hi - lo) })
	const mark = 1 << 20

	src := descend(t, tr, full)[Levels-1]
	var im *nodeImage[val]
	var imWas imageSnap
	var srcWas nodeShape[val]
	var kids []*Tree[val]
	for i := 0; i < 5; i++ {
		child := tr.ForkLazy(c)
		kids = append(kids, child)
		child.LockPage(c, full+7).Unlock()
		leaf := descend(t, child, full)[Levels-1]
		if leaf.tree != child || leaf.img == nil {
			t.Fatalf("child %d: the touch did not copy the leaf into an image-born node", i)
		}
		if i == 0 {
			im = leaf.img
			imWas, srcWas = snapImage(im), shapeOf(t, src)
			if src.copyImg != im || len(im.groups) != groupsPerNode {
				t.Fatalf("the first copy's image (%d groups) is not the one cached on the source", len(im.groups))
			}
		} else if leaf.img != im {
			t.Errorf("child %d was born from another image than child 0", i)
		}
	}
	for i, child := range kids {
		leaf := descend(t, child, full)[Levels-1]
		for v := full; v < full+span(1); v++ {
			r := child.LockPage(c, v)
			e := r.Entry(0)
			if got := e.Value(); got == nil || got.x != int(v)|mark {
				t.Fatalf("child %d page %d born as %+v, want x=%d", i, v, got, int(v)|mark)
			}
			e.Value().x = -i
			e.Set(e.Value())
			r.Unlock()
		}
		if got := countGroups(leaf); got != groupsPerNode {
			t.Errorf("child %d: %d groups have storage after every page was touched, want %d", i, got, groupsPerNode)
		}
		clearRange(child, c, full+100, full+300)
		for _, v := range []uint64{full, full + 99, full + 300, full + 511} {
			if got := child.Lookup(c, v); got == nil || got.x != -i {
				t.Errorf("child %d page %d = %+v after rewriting, want x=%d", i, v, got, -i)
			}
		}
		if child.Lookup(c, full+200) != nil {
			t.Errorf("child %d: a cleared page is still mapped", i)
		}
		child.Release(c)
		quiesce(rc)
	}
	if released == 0 {
		t.Error("the release hook never ran")
	}
	if !reflect.DeepEqual(snapImage(im), imWas) {
		t.Error("the image changed after its sweep ended")
	}
	if !reflect.DeepEqual(shapeOf(t, src), srcWas) {
		t.Error("the frozen source changed after its first divergence")
	}
	for v := full; v < full+span(1); v += 37 {
		if got := tr.Lookup(c, v); got == nil || got.x&^(1<<21) != int(v) {
			t.Fatalf("parent page %d = %+v after the children came and went", v, got)
		}
	}
}

// leafCopy touches vpn in child and returns child's copy of vpn's leaf.
func leafCopy(t *testing.T, child *Tree[val], c *hw.CPU, vpn uint64) *node[val] {
	t.Helper()
	child.LockPage(c, vpn).Unlock()
	leaf := descend(t, child, vpn)[Levels-1]
	if leaf.tree != child {
		t.Fatalf("touching page %d did not copy its leaf", vpn)
	}
	return leaf
}

// sameAsSlotBySlot checks got, a copy of src, against the slot-by-slot copy,
// markingHook's marks aside. relinked names an interior copy's slot that has
// since been pointed at the next copy down the path (-1: none).
func sameAsSlotBySlot(t *testing.T, what string, src, got *node[val], relinked int) {
	t.Helper()
	ref, _ := copiedSlotBySlot(src)
	want, have := shapeOf(t, ref), shapeOf(t, got)
	for _, s := range []*nodeShape[val]{&want, &have} {
		if relinked >= 0 {
			s.Slots[relinked] = slotShape[val]{}
		}
		if s.Fill != nil {
			s.Fill.x &^= 3 << 20
		}
		for i := range s.Slots {
			if v := s.Slots[i].Val; v != nil {
				v.x &^= 3 << 20
			}
		}
	}
	if !reflect.DeepEqual(want, have) {
		t.Errorf("%s differs from the slot-by-slot copy:\n got groups=%d bits=%x\nwant groups=%d bits=%x",
			what, have.Groups, have.Bits, want.Groups, want.Bits)
	}
}

// TestStaleImageIsRebuilt: a lookup on the parent's side materializes a group
// in a frozen leaf between two divergences. The later copy has that group —
// it equals the slot-by-slot copy of the leaf as it now is — and so cannot
// have come from the earlier image; the earlier copy is what it was.
func TestStaleImageIsRebuilt(t *testing.T) {
	m, _, tr, _, _, holed := forkSource(t)
	c := m.CPU(0)
	src := descend(t, tr, holed)[Levels-1]

	a := tr.ForkLazy(c)
	la := leafCopy(t, a, c, holed+3)
	sameAsSlotBySlot(t, "the first copy", src, la, -1)
	was := shapeOf(t, la)

	before := src.dir
	if got := tr.Lookup(c, holed+200); got == nil || got.x != 2 {
		t.Fatalf("parent lookup in the shared leaf = %+v, want x=2", got)
	}
	if src.dir == before {
		t.Fatal("setup: the lookup materialized nothing in the shared leaf")
	}

	b := tr.ForkLazy(c)
	lb := leafCopy(t, b, c, holed+3)
	sameAsSlotBySlot(t, "the copy made after the lookup", src, lb, -1)
	if lb.img == nil || lb.img == la.img || src.copyImg != lb.img {
		t.Errorf("the later copy did not build and cache a new image (reused the stale one: %v)", lb.img == la.img)
	}
	if lb.dir.bits.count() != la.dir.bits.count()+1 {
		t.Errorf("the later copy has %d groups, the earlier %d: want one more", lb.dir.bits.count(), la.dir.bits.count())
	}
	if !reflect.DeepEqual(shapeOf(t, la), was) {
		t.Error("the earlier copy changed")
	}
	if got := b.Lookup(c, holed+200); got == nil || got.x != 2 {
		t.Errorf("later copy's page in the newly materialized group = %+v, want x=2", got)
	}
}

// TestImageAbandonedWhenSourceChanged: a frozen interior node links a leaf
// that is empty but not yet reclaimed when the first child copies the node,
// and reclaimed — its slot swung to empty — when the second does. The
// second sweep finds the slot differs from the cached image: it builds a
// new image, seeded with the slots it has passed, which equals the image a
// sweep of the source as it now is builds, and it caches that image on the
// source; the copy is the slot-by-slot copy. A third child reuses the new
// image. The dying leaf sits mid-group, beside a live leaf at 21 (slot 22)
// or alone in its group (26), or at a group's first slot (24): where it is
// alone, the new image keeps nothing of the group.
func TestImageAbandonedWhenSourceChanged(t *testing.T) {
	for _, dying := range []int{22, 24, 26} {
		t.Run(fmt.Sprintf("slot%d", dying), func(t *testing.T) { imageRebuiltWhenSourceChanged(t, dying) })
	}
}

func imageRebuiltWhenSourceChanged(t *testing.T, dying int) {
	m, rc, tr, full, _, _ := forkSource(t)
	c := m.CPU(0)
	markingHook(tr)
	// forkSource's level-1 node holds slots 8, 9, 11 (leaves) and 13 (a folded
	// value). Add leaves at 21, at the dying slot, and at 40, past them.
	for _, slot := range []uint64{21, uint64(dying), 40} {
		setPage(tr, c, slot*span(1)+1, int(slot))
	}
	clearRange(tr, c, uint64(dying)*span(1)+1, uint64(dying)*span(1)+2)
	src := descend(t, tr, full)[Levels-2]
	if st := src.peek(dying); st == nil || st.child == nil {
		t.Fatal("setup: the emptied leaf was unlinked before the fork")
	}

	a := tr.ForkLazy(c)
	leafCopy(t, a, c, full)
	ia := descend(t, a, full)[Levels-2]
	if ia.img == nil || src.copyImg != ia.img || ia.peek(dying) == nil {
		t.Fatal("setup: the first copy was not born from an image that links the dying leaf")
	}
	stale := snapImage(ia.img)

	quiesce(rc) // the empty leaf is reclaimed; its slot in the frozen node reads empty
	if src.peek(dying) != nil {
		t.Fatal("setup: the emptied leaf is still linked")
	}
	b := tr.ForkLazy(c)
	leafCopy(t, b, c, full)
	ib := descend(t, b, full)[Levels-2]
	sameAsSlotBySlot(t, "the copy that found the image stale", src, ib, 8)
	if ib.img == nil || ib.img == ia.img || src.copyImg != ib.img {
		t.Fatal("the second copy did not build a new image and cache it on the source")
	}
	if !reflect.DeepEqual(snapImage(ia.img), stale) {
		t.Error("the stale image changed")
	}
	gi, j := dying/slotsPerLine, dying%slotsPerLine
	og, ng := ia.img.group(gi), ib.img.group(gi)
	if og == nil {
		t.Fatalf("setup: the stale image has no group %d", gi)
	}
	alone := true
	for k := 0; k < j; k++ {
		alone = alone && og.src[k] == nil
	}
	switch {
	case alone && ng != nil:
		t.Errorf("the new image kept group %d, whose only held slot %d died", gi, dying)
	case !alone && (ng == nil || ng.src[j] != nil || !slices.Equal(ng.src[:j], og.src[:j])):
		t.Errorf("the new image's group %d does not keep the stale one's slots below %d and drop %d", gi, dying, dying)
	}
	for _, slot := range []uint64{9, 11, 21, 40} {
		vpn := slot*span(1) + 1
		if slot == 9 {
			vpn = slot * span(1) // the sparse leaf's page 0
		}
		if p, ch := tr.Lookup(c, vpn), b.Lookup(c, vpn); (p == nil) != (ch == nil) {
			t.Errorf("page %d: parent sees %v, the second child %v", vpn, p, ch)
		}
	}
	if got := b.Lookup(c, 13*span(1)+5); got == nil || got.x != 3|1<<20 {
		t.Errorf("folded value in the second copy = %+v, want the marked copy of 3", got)
	}

	d := tr.ForkLazy(c)
	leafCopy(t, d, c, full)
	id := descend(t, d, full)[Levels-2]
	sameAsSlotBySlot(t, "the copy made after the rebuild", src, id, 8)
	if id.img != ib.img || src.copyImg != ib.img {
		t.Error("the third copy did not reuse the rebuilt image")
	}

	// A sweep with no image cached builds the same one from scratch.
	src.copyImg = nil
	e := tr.ForkLazy(c)
	leafCopy(t, e, c, full)
	ie := descend(t, e, full)[Levels-2]
	if ie.img == ib.img || !reflect.DeepEqual(snapImage(ie.img), snapImage(ib.img)) {
		t.Error("the rebuilt image differs from one built from scratch")
	}
	for _, tt := range []*Tree[val]{a, b, d, e} {
		tt.Release(c)
	}
	quiesce(rc)
}

// TestConcurrentRealization (on the explorer): eight cores touch the
// pages of one copy born in an image, interleaved so that every run of groups
// is wanted by several at once. One realization of each group wins and
// everybody sees it.
func TestConcurrentRealization(t *testing.T) {
	for seed := range hw.Seeds(8) {
		if concurrentRealization(t, seed); t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
	}
}

func concurrentRealization(t *testing.T, seed uint64) {
	const ncores = 8
	m, rc, tr := newTree(ncores)
	c0 := m.CPU(0)
	full := 8 * span(1)
	r := tr.LockRange(c0, full, full+span(1))
	r.Entry(0).SetClone(&val{x: 1})
	r.Unlock()
	for v := full; v < full+span(1); v++ {
		r = tr.LockPage(c0, v)
		r.Entry(0).Value().x = int(v)
		r.Unlock()
	}
	child := tr.ForkLazy(c0)
	leaf := leafCopy(t, child, c0, full)
	if leaf.img == nil || countGroups(leaf) != realizeRun {
		t.Fatalf("setup: want a copy born in an image with one run realized, have %d groups with storage", countGroups(leaf))
	}
	hw.RunGang(m, ncores, seed, func(c *hw.CPU, _ *hw.Gang) {
		for v := full + uint64(c.ID()); v < full+span(1); v += ncores {
			if child.Lookup(c, v^1) == nil { // another core's page: its value is not ours to read
				t.Errorf("core %d: page %d is gone", c.ID(), v^1)
			}
			r := child.LockPage(c, v)
			e := r.Entry(0)
			e.Value().x |= 1 << 30
			e.Set(e.Value())
			r.Unlock()
		}
		rc.Maintain(c)
	})
	if got := countGroups(leaf); got != groupsPerNode || child.groupsLive != child.GroupsEver() {
		t.Errorf("%d groups have storage (%d live of %d ever), want all %d once each",
			got, child.groupsLive, child.GroupsEver(), groupsPerNode)
	}
	for v := full; v < full+span(1); v++ {
		if got := child.Lookup(c0, v); got == nil || got.x != int(v)|1<<30 {
			t.Fatalf("page %d = %+v after the storm, want x=%d", v, got, int(v)|1<<30)
		}
		if got := tr.Lookup(c0, v); got == nil || got.x != int(v) {
			t.Fatalf("parent page %d = %+v: a child's write leaked", v, got)
		}
	}
}

// TestConcurrentDivergenceOfOneLeaf: four trees diverge the same frozen path
// at once, one seed of the explorer a round. Their sweeps serialize on the
// shared nodes' bits; whichever builds an image, every copy is the
// slot-by-slot copy.
func TestConcurrentDivergenceOfOneLeaf(t *testing.T) {
	const ncores = 4
	for round := range hw.Seeds(8) {
		m, rc, tr, full, _, _ := forkSourceOn(t, ncores)
		markingHook(tr)
		kids := make([]*Tree[val], ncores)
		for i := range kids {
			kids[i] = tr.ForkLazy(m.CPU(0))
		}
		src := descend(t, tr, full)[Levels-1]
		hw.RunGang(m, ncores, round, func(c *hw.CPU, _ *hw.Gang) {
			kids[c.ID()].LockPage(c, full+uint64(c.ID())).Unlock()
			rc.Maintain(c)
		})
		for i, child := range kids {
			leaf := descend(t, child, full)[Levels-1]
			if leaf.tree != child {
				t.Fatalf("round %d: child %d did not copy the leaf", round, i)
			}
			sameAsSlotBySlot(t, "a concurrently made copy", src, leaf, -1)
			if got := child.Lookup(m.CPU(0), full+300); got == nil || got.x != int(full+300)|1<<20 {
				t.Errorf("round %d child %d: page born as %+v, want the marked copy of %d", round, i, got, full+300)
			}
		}
	}
}

// TestRangeLockMaterializesPerNode: the first range lock over sixteen
// unmaterialized groups of a published uniform leaf allocates the groups'
// slab, the new directory and its slice — not three allocations per group —
// and leaves lines, gates, slots and the uniform gate table exactly as
// materializing the groups one at a time did.
func TestRangeLockMaterializesPerNode(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const lo, hi = 64, 128 // sixteen groups of the leaf
	build := func() (*hw.CPU, *Tree[val], *node[val]) {
		m, _, tr := newTree(1)
		c := m.CPU(0)
		r := tr.LockRange(c, 0, span(1))
		r.Entry(0).SetClone(&val{x: 5})
		r.Unlock()
		r = tr.LockPage(c, 3) // expands the fold into a uniform leaf
		leaf := r.Entry(0).n
		r.Unlock()
		// Grow the cached Range to 64 entries somewhere else, so the
		// measured lock allocates for the leaf alone.
		tr.LockRange(c, span(1)+lo, span(1)+hi).Unlock()
		if leaf.level != 0 || leaf.dir.bits.count() != 1 {
			t.Fatalf("setup: want a leaf with one group, have level %d with %d", leaf.level, leaf.dir.bits.count())
		}
		return c, tr, leaf
	}
	lock := func(c *hw.CPU, tr *Tree[val]) {
		r := tr.LockRange(c, lo, hi)
		for i := range r.Entries() {
			if v := r.Entry(i).Value(); v == nil || v.x != 5 {
				t.Fatalf("entry %d = %+v, want the fill", i, v)
			}
		}
		r.Unlock()
	}

	least := ^uint64(0)
	var batched *node[val]
	var cb *hw.CPU
	for i := 0; i < 5; i++ {
		c, tr, leaf := build()
		uniWas := leaf.uni
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lock(c, tr)
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
		if leaf.uni != uniWas {
			t.Error("the range lock touched the leaf's uniform gate table")
		}
		batched, cb = leaf, c
	}
	if least > 3 {
		t.Errorf("range lock over 16 unmaterialized groups made %d allocations, want <= 3", least)
	}

	cs, trs, single := build()
	for gi := lo / slotsPerLine; gi < hi/slotsPerLine; gi++ {
		single.materialize(gi, gi)
	}
	lock(cs, trs)
	if cb.Now() != cs.Now() || *cb.Stats() != *cs.Stats() {
		t.Errorf("virtual cost differs: batched clock %d stats %+v, one at a time clock %d stats %+v", cb.Now(), *cb.Stats(), cs.Now(), *cs.Stats())
	}
	if batched.uni != single.uni || batched.dir.bits != single.dir.bits {
		t.Errorf("batched leaf has groups %x, one at a time %x", batched.dir.bits, single.dir.bits)
	}
	batched.forEachGroup(func(gi int, g *slotGroup[val]) {
		s := single.groupLoad(gi)
		if !reflect.DeepEqual(&g.line, &s.line) || !reflect.DeepEqual(&g.gates, &s.gates) {
			t.Errorf("group %d: line or gates differ between batched and single materialization", gi)
		}
		for j := range g.sts {
			if !reflect.DeepEqual(shapeOfSlot(g.sts[j]), shapeOfSlot(s.sts[j])) {
				t.Errorf("group %d slot %d differs", gi, j)
			}
		}
	})
}
