package radix

import "radixvm/internal/hw"

// The per-node copy protocol: the one way a node of one tree becomes a node
// of another. A fork family shares subtrees (lazy.go), and only a frozen node
// — one no tree writes in place, foreign to every tree linking it — is ever
// copied: the root a fork froze, into the child at the fork and into the
// parent at its next write (ownRoot), and a shared node below it when a write
// path first descends into it (divergeChild). The copier (linkCopy) takes
// every slot lock bit of the source left to right — the global order every
// Range operation uses — and fills the copy (cloneShell, shell).
//
// Since nobody can write the source, its copy is a reader: one read of each
// group line, a write only where the divergence hook wrote a source value, no
// wait for an earlier copy, and bits taken and released uncharged
// (CPU.LockBit, unlockBits). Reads of a shared line scale; this is the paper's
// rule applied to the index's own metadata.

// Cost model: a copied node is billed by the *logical* size of what is
// copied, at the page-copy rate (PageZero cycles per 4 KB): a header — the
// fill value, the packed lock bits, the plateau table, and the group
// directory — plus a cache line of four 16-byte slots per group of the
// source, not a full simulated 8 KB page. The same by-logical-size rule
// prices the baselines' fork (vm.MetaCopyCost: VMA structs and PTEs), keeping
// the comparison fair.
const (
	// ForkHeaderBytes is the logical size of a node header (~1.2 KB: fill
	// slot, 8 lock-bit words, plateau table, 128-entry group directory).
	ForkHeaderBytes = 1216
	// ForkGroupBytes is the logical size billed per group of the source.
	ForkGroupBytes = 64
	// forkPageBytes: PageZero is the cost of touching one 4 KB page.
	forkPageBytes = 4096
)

// ForkNodeCost returns the virtual cycles charged for copying one node with
// the given number of groups, given the machine's PageZero cost (exported so
// tests can assert the billing exactly).
func ForkNodeCost(pageZero uint64, groups int) uint64 {
	return pageZero * (ForkHeaderBytes + uint64(groups)*ForkGroupBytes) / forkPageBytes
}

// readSlot reads slot idx of src, whose group is g, under the slot's held
// bit: its state, and for a child link the child, pinned. A link whose child
// died mid-reclaim reads as the empty slot it has become.
func (t *Tree[V]) readSlot(cpu *hw.CPU, src *node[V], g *slotGroup[V], idx int) (st *slotState[V], child *node[V]) {
	st = g.sts[idx%slotsPerLine]
	if st != nil && st.child != nil {
		if child = t.loadChild(cpu, src, idx, st); child == nil {
			st = nil
		}
	}
	return st, child
}

// cloneShell builds tree t's counterpart of the frozen node src: same level
// and base, room for a copy of the uniform fill, and the means to place the
// groups the caller is about to sweep slot by slot (see shell). The metadata
// copy is billed by its logical size (ForkNodeCost).
func (t *Tree[V]) cloneShell(cpu *hw.CPU, src *node[V]) shell[V] {
	n := t.header(cpu, src.level, src.base)
	// Whether src has a fill is fixed at its birth; the fill's value is copied
	// once the sweep holds src's bits (another tree's hook may be writing it).
	if src.uniSt != nil {
		n.uniSt = &n.uniStore
	}
	// Count the source's groups: they price the clone. Those the copy will
	// have too — every group of a node with a fill, the groups holding
	// anything in a node without one — size the image. The source is not
	// locked yet, but the count cannot come out short: the sweep reads the
	// groups of this directory only, and in a frozen node a slot can go
	// empty (a dead child's link) but never stop being empty.
	sd := src.dir
	srcGroups, kept := 0, 0
	if sd != nil {
		srcGroups = len(sd.groups)
		kept = srcGroups
		if src.uniSt == nil {
			kept = 0
			for k := range sd.groups {
				g := sd.groups[k] // realized by linkCopy
				for j := range g.sts {
					if g.sts[j] != nil {
						kept++
						break
					}
				}
			}
		}
	}
	// A pooled node's groups are dropped: the copy's groups are src's,
	// realized in runs as its owner touches them.
	t.groupsLive -= countGroups(n)
	sh := shell[V]{node: n, over: sd}
	if n.uniSt != nil {
		sh.used = SlotsPerNode
	}
	// Born in src's image: the cached one if it still describes src, else a
	// new one, which the sweep fills and then caches on src when it gives
	// the copy its directory. A copy with no groups needs none.
	var nd *groupDir[V]
	if kept > 0 {
		if sh.img = src.copyImg; sh.img != nil && sh.img.over == sd {
			nd = newGroupDirOf[V](sh.img.bits)
		} else {
			sh.img = &nodeImage[V]{over: sd, groups: make([]imageGroup[V], 0, kept)}
			sh.build = true
		}
	}
	n.dir = nd
	n.img = sh.img
	cpu.TickAs(hw.CauseMetaCopy, ForkNodeCost(t.pageZero, srcGroups))
	return sh
}

// shell is a copy under construction: the node, private to the copying
// core until the caller links it into its parent slot, and where the sweep puts what
// the copy's slots are born holding (the package comment's last two rows).
// The copy is born in img, the source's image: the sweep fills it if build is
// set, and otherwise has nothing to write. A copy whose image was abandoned
// has img nil, and the sweep mirrors the rest of it into groups of its own,
// its directory filled in place. over is the source's directory the copy was
// sized from, and used counts the copy's used slots as the sweep takes them.
type shell[V any] struct {
	*node[V]
	img   *nodeImage[V]
	build bool
	over  *groupDir[V]
	used  int64
}

// take puts into the copy what the sweep read in src's slot idx under its
// held bit: st (nil: empty) in group g (nil if it has none: src's fill),
// with child pinned if st links one. It reports whether the OnDiverge hook
// wrote src's value.
func (sh *shell[V]) take(t *Tree[V], cpu *hw.CPU, cs *cpuState[V], src *node[V], idx int, g *slotGroup[V], st *slotState[V], child *node[V]) (wrote bool) {
	fill := sh.uniSt != nil
	// A slot the copy's header does not already stand for — one that
	// diverged from src's fill, to empty included, or anything a node
	// without a fill holds — goes into the copy's group.
	mirror := g != nil && (st != nil || fill)
	if sh.img != nil && !sh.build && !sh.img.agrees(idx, st, mirror) {
		sh.abandon(t, src, idx)
	}
	if !mirror {
		return false
	}
	cell, store := sh.cell(t, cs, idx, st)
	switch {
	case st == nil:
		sh.used--
	case child != nil:
		// Link mode: share the subtree instead of copying it. The pin
		// makes the links bump safe against concurrent reclamation.
		child.links++
		if cell != nil {
			*cell = slotState[V]{child: child.obj}
		}
		t.unpin(cpu, child)
	case cell != nil:
		dv := copyInto(cell, store, st.val)
		if t.hooks != nil {
			lo := src.slotBase(idx)
			wrote = t.hooks.OnDiverge(cpu, lo, lo+span(src.level), st.val, dv)
		}
	}
	if st != nil && !fill {
		sh.used++
	}
	return wrote
}

// cell returns the storage for what slot idx of the copy is born holding — a
// slot state and the value behind it — for the sweep to fill; st is what
// src's slot holds (nil: empty). The slot is one the copy's header does not
// stand for. The cell of a copy whose sweep builds an image is in the image;
// an abandoned copy's is in its own group, created at need.
// When the image is there already the sweep has nothing to write and cell
// returns nil — unless the slot holds a value and there is an OnDiverge hook
// to hand a dst to: cs's scratch cell, filled and forgotten.
func (sh *shell[V]) cell(t *Tree[V], cs *cpuState[V], idx int, st *slotState[V]) (*slotState[V], *V) {
	gi, j := idx/slotsPerLine, idx%slotsPerLine
	if sh.build {
		ig := sh.img.group(gi)
		if ig == nil {
			ig = sh.img.grow(gi)
		}
		ig.src[j] = st
		return &ig.sts[j], &ig.vals[j]
	}
	if sh.img != nil {
		if st == nil || st.child != nil || t.hooks == nil {
			return nil, nil
		}
		return &cs.bornSt, &cs.born
	}
	dg := sh.forkGroup(t, gi)
	if st == nil {
		dg.sts[j] = nil
	} else {
		dg.sts[j] = &dg.slab[j]
	}
	return &dg.slab[j], &dg.vals[j]
}

// abandon turns a copy being born in an image into a mirrored one, when the
// sweep finds at slot idx that the image cannot serve: the source no longer
// reads as the image recorded, because a child of a frozen interior node died
// since. The groups swept so far agreed with the image and become real groups
// filled from it; the sweep mirrors the rest. The source's cached image, if
// this is it, is dropped.
func (sh *shell[V]) abandon(t *Tree[V], src *node[V], idx int) {
	im := sh.img
	gi, j := idx/slotsPerLine, idx%slotsPerLine
	upto := gi
	if j > 0 && im.bits.has(gi) {
		upto++ // partly swept: its first j slots are the image's
	}
	d := newGroupDirOf[V](im.bits.below(upto))
	slab := make([]slotGroup[V], len(d.groups))
	for k, g := 0, 0; k < len(slab); g++ {
		if d.bits.has(g) {
			slots := slotsPerLine
			if g == gi {
				slots = j
			}
			im.fill(&slab[k], g, slots)
			d.groups[k] = &slab[k]
			k++
		}
	}
	t.groupsEver += int64(len(slab))
	t.groupsLive += int64(len(slab))
	sh.dir = d
	sh.node.img, sh.img, sh.build = nil, nil, false
	if src.copyImg == im {
		src.copyImg = nil
	}
}

// forkGroup returns the abandoned copy's group gi, creating it zeroed if
// absent (a fresh child group's gates start free, as in a brand-new address
// space). Unlike initGroup it does not pre-fill slot states: the sweep
// overwrites every slot of a mirrored group explicitly. nt is the tree the
// copy belongs to.
func (sh *shell[V]) forkGroup(nt *Tree[V], gi int) *slotGroup[V] {
	d := sh.dir
	if d == nil {
		d = newGroupDir[V](0)
		sh.dir = d
	} else if g := d.get(gi); g != nil {
		return g
	}
	g := new(slotGroup[V])
	d.insert(gi, g) // the copy loops ask in ascending slot order
	nt.groupsEver++
	nt.groupsLive++
	return g
}

// unlockBits releases every slot bit of the frozen node n at the end of a
// copy of it, uncharged: the copy waited for no earlier holder
// in virtual time, and neither will the next.
func (n *node[V]) unlockBits() {
	for w := range n.bits {
		n.bits[w] = 0
	}
}
