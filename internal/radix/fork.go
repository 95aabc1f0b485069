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
	// realized in runs as its owner touches them. The copy gets its
	// directory, the image's groups, when the sweep is done (linkCopy).
	t.groupsLive -= countGroups(n)
	n.dir = nil
	sh := shell[V]{node: n, over: sd}
	if n.uniSt != nil {
		sh.used = SlotsPerNode
	}
	// Born in src's image: the cached one if it still describes src, else a
	// new one, which the sweep fills and then caches on src. A copy with no
	// groups needs none.
	if kept > 0 {
		if n.img = src.copyImg; n.img == nil || n.img.over != sd {
			n.img = &nodeImage[V]{over: sd, groups: make([]imageGroup[V], 0, kept)}
			sh.build = true
		}
	}
	cpu.TickAs(hw.CauseMetaCopy, ForkNodeCost(t.pageZero, srcGroups))
	return sh
}

// shell is a copy under construction: the node, private to the copying
// core until the caller links it into its parent slot. The copy is born in
// its img, the source's image (the package comment's second row): the sweep
// fills it if build is set, and otherwise has nothing to write. over is the
// source's directory the copy was sized from, and used counts the copy's
// used slots as the sweep takes them.
type shell[V any] struct {
	*node[V]
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
	grouped := g != nil && (st != nil || fill)
	if sh.img != nil && !sh.build && !sh.img.agrees(idx, st, grouped) {
		sh.rebuild(idx)
	}
	if !grouped {
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
// stand for, so the copy has an image. The cell of a copy whose sweep builds
// the image is in the image. When the image is there already the sweep has
// nothing to write and cell returns nil — unless the slot holds a value and
// there is an OnDiverge hook to hand a dst to: cs's scratch cell, filled and
// forgotten.
func (sh *shell[V]) cell(t *Tree[V], cs *cpuState[V], idx int, st *slotState[V]) (*slotState[V], *V) {
	if !sh.build {
		if st == nil || st.child != nil || t.hooks == nil {
			return nil, nil
		}
		return &cs.bornSt, &cs.born
	}
	gi, j := idx/slotsPerLine, idx%slotsPerLine
	ig := sh.img.group(gi)
	if ig == nil {
		ig = sh.img.grow(gi)
	}
	ig.src[j] = st
	return &ig.sts[j], &ig.vals[j]
}

// rebuild gives the copy a new image when the sweep finds at slot idx that
// the source no longer reads as its cached image recorded: a child of the
// frozen node died since, and its link reads empty. The slots swept so far
// agreed with the old image, so the new one starts as their copy, as this
// sweep would have built it; the sweep builds the rest, and linkCopy caches
// the new image on the source. The old image stays with the copies born in
// it.
func (sh *shell[V]) rebuild(idx int) {
	old := sh.img
	// The source has only lost slots since the old image was sized, so its
	// capacity holds the new one.
	sh.img = &nodeImage[V]{over: old.over, groups: make([]imageGroup[V], 0, cap(old.groups))}
	sh.build = true
	fill := sh.uniSt != nil
	gi, j := idx/slotsPerLine, idx%slotsPerLine
	for g := 0; g <= gi; g++ {
		og := old.group(g)
		if og == nil {
			continue
		}
		var ng *imageGroup[V]
		for k := 0; k < slotsPerLine && (g < gi || k < j); k++ {
			if og.src[k] == nil && !fill {
				continue // an empty slot puts no group in the image
			}
			if ng == nil {
				ng = sh.img.grow(g)
			}
			ng.src[k], ng.sts[k] = og.src[k], og.sts[k]
			if v := og.sts[k].val; v != nil {
				copyInto(&ng.sts[k], &ng.vals[k], v)
			}
		}
	}
}

// unlockBits releases every slot bit of the frozen node n at the end of a
// copy of it, uncharged: the copy waited for no earlier holder
// in virtual time, and neither will the next.
func (n *node[V]) unlockBits() {
	for w := range n.bits {
		n.bits[w] = 0
	}
}
