package radix

import "radixvm/internal/hw"

// The per-node copy protocol: the one way a node of one tree becomes a node
// of another. A fork family shares subtrees (lazy.go); a node is copied when
// ForkLazy snapshots a root and when a write path first descends into a node
// its tree shares (divergeChild). The copier (linkCopy) takes every slot lock
// bit of the source left to right — the global order every Range operation
// uses, so the copy is an atomic snapshot of the node — and fills the copy
// (cloneShell, shell). What the copy costs in virtual time depends on whether
// anyone can still write the source:
//
//   - A live root is written by its tree's operations, so its copy is a
//     writer like them: it waits out each slot's earlier holder, writes each
//     slot's line (sweepSlot), and releases all the bits as one merged busy
//     period (forkUnlock). Neither side gains a group: the source's slots
//     without storage are covered by their packed bit words, their
//     virtual-time wait by the node's uniform gate table, and the copy has
//     exactly the groups the source has.
//   - A frozen node — shared by trees that all copy it before writing — is
//     read-only, so its copy is a reader: one read of each group line, a
//     write only where the divergence hook wrote a source value, no wait for
//     an earlier copy, and bits released in real time only (unlockBits).
//     Reads of a shared line scale; this is the paper's rule applied to the
//     index's own metadata.

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

// sweepSlot takes slot idx's lock bit for a copy's sweep of the live root
// src and reads the slot under it: its group (nil if it has none: src's
// uniform fill), its state, and for a child link the child, pinned.
//
// A locker may materialize a group between two of its slots' sweeps, so the
// copy reads the earlier ones as groupless and the later ones from the group.
// That is the same snapshot: a root has no fill (NewCopy births it empty, a
// fill is fixed at birth, and cloneShell copies only the source's), so a
// group born from it holds empty slots, and the copy holds the earlier
// slots' bits, so nothing has written them since. TestRootsHaveNoFill holds
// the premise.
func (t *Tree[V]) sweepSlot(cpu *hw.CPU, src *node[V], idx int) (g *slotGroup[V], st *slotState[V], child *node[V]) {
	gi := idx / slotsPerLine
	mask := uint64(1) << (uint(idx) & 63)
	w := &src.bits[idx>>6]
	g = src.groupLoad(gi)
	if g != nil {
		cpu.Write(&g.line)
		cpu.AcquireBitIn(w, mask, &g.gates[idx%slotsPerLine], hw.CauseRootFork)
	} else {
		// No group: the bit is normally free (held groupless bits
		// exist only transiently, mid-expansion — or for a whole
		// critical section, when a concurrent fork holds them). Spin
		// out any such holder; its virtual-time cost is settled by
		// the post-sweep merged-table wait. No line exists to
		// charge: untouched slots cost nothing.
		hw.LockBit(w, mask)
		// A concurrent locker may have materialized the group while
		// we raced for the bit; re-read so the state load sees it.
		if g = src.groupLoad(gi); g == nil {
			return nil, src.uniSt, nil
		}
	}
	st, child = t.readSlot(cpu, src, g, idx)
	return g, st, child
}

// readSlot reads slot idx of src, whose group is g, under the slot's held
// bit: its state, and for a child link the child, pinned. A link whose child
// died mid-reclaim reads as the empty slot it has become.
func (t *Tree[V]) readSlot(cpu *hw.CPU, src *node[V], g *slotGroup[V], idx int) (st *slotState[V], child *node[V]) {
	st = g.sts[idx%slotsPerLine].Load()
	if st != nil && st.child != nil {
		if child = t.loadChild(cpu, src, idx, st); child == nil {
			st = nil
		}
	}
	return st, child
}

// cloneShell builds the child-tree counterpart of src: same level and base,
// room for a copy of the uniform fill, and the means to place the groups the
// caller is about to sweep slot by slot (see shell). t is the child tree. The
// metadata copy is billed by its logical size (ForkNodeCost).
func (t *Tree[V]) cloneShell(cpu *hw.CPU, src *node[V], frozen bool) shell[V] {
	n := t.header(cpu, src.level, src.base)
	// Whether src has a fill is fixed at its birth; the fill's value is copied
	// once the sweep holds src's bits (another tree's hook may be writing it).
	if src.uniSt != nil {
		n.uniSt = &n.uniStore
	}
	// Count the source's groups: they price the clone. Those the copy will
	// have too — every group of a node with a fill, the groups holding
	// anything in a node without one — size what holds them. The source is
	// not locked yet, so under real concurrency a live root's count can come
	// out short (see forkGroup). A frozen source's cannot: its sweep reads
	// the groups of this directory only, and in a frozen node a slot can go
	// empty (a dead child's link) but never stop being empty.
	sd := src.dir.Load()
	srcGroups, mirrored := 0, 0
	if sd != nil {
		srcGroups = len(sd.groups)
		mirrored = srcGroups
		if src.uniSt == nil {
			mirrored = 0
			for k := range sd.groups {
				g := sd.groups[k].Load() // realized by linkCopy
				for j := range g.sts {
					if g.sts[j].Load() != nil {
						mirrored++
						break
					}
				}
			}
		}
	}
	// A pooled node's groups are dropped: the copy's groups are src's, in one
	// slab (mirrored) or realized in runs as its owner touches them (image).
	t.groupsLive.Add(-countGroups(n))
	sh := shell[V]{node: n, over: sd}
	if n.uniSt != nil {
		sh.used = SlotsPerNode
	}
	if frozen && mirrored > 0 {
		// Born in src's image: the cached one if it still describes src,
		// else a new one, which the sweep fills and then publishes along
		// with the copy's directory.
		if sh.img = src.copyImg.Load(); sh.img != nil && sh.img.over == sd {
			n.dir.Store(newGroupDirOf[V](sh.img.bits))
		} else {
			sh.img = &nodeImage[V]{over: sd, groups: make([]imageGroup[V], 0, mirrored)}
			sh.build = true
			n.dir.Store(nil)
		}
	} else {
		// Mirrored: a directory filled in place, one slab for all its groups.
		var nd *groupDir[V]
		if mirrored > 0 {
			nd = newGroupDir[V](mirrored)
			sh.spare = make([]slotGroup[V], mirrored)
		}
		n.dir.Store(nd)
	}
	n.img = sh.img
	cpu.TickAs(hw.CauseMetaCopy, ForkNodeCost(t.pageZero, srcGroups))
	return sh
}

// shell is a copy under construction: the node, private to the copying
// goroutine until its parent slot publishes it, and where the sweep puts what
// the copy's slots are born holding (the package comment's last two rows). A
// mirrored copy's groups come from spare, its directory filled in place. A
// copy of a frozen source is born in img, the source's image: the sweep fills
// it if build is set, and otherwise has nothing to write. over is the
// source's directory the copy was sized from, and used counts the copy's used
// slots as the sweep takes them.
type shell[V any] struct {
	*node[V]
	spare []slotGroup[V]
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
		child.links.Add(1)
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
// stand for. A mirrored copy's cell is in its group, created
// at need; the cell of a copy whose sweep builds an image is in the image.
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
		storePlain(&dg.sts[j], nil)
	} else {
		storePlain(&dg.sts[j], &dg.slab[j])
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
			d.groups[k].Store(&slab[k])
			k++
		}
	}
	t.groupsEver.Add(int64(len(slab)))
	t.groupsLive.Add(int64(len(slab)))
	sh.dir.Store(d)
	sh.node.img, sh.img, sh.build = nil, nil, false
	src.copyImg.CompareAndSwap(im, nil)
}

// forkGroup returns the mirrored copy's group gi, creating it zeroed if
// absent (a fresh child group's gates start free, as in a brand-new address
// space). Unlike initGroup it does not pre-fill slot states: the sweep
// overwrites every slot of a mirrored group explicitly. nt is the tree the
// copy belongs to.
func (sh *shell[V]) forkGroup(nt *Tree[V], gi int) *slotGroup[V] {
	d := sh.dir.Load()
	if d == nil {
		d = newGroupDir[V](0)
		sh.dir.Store(d)
	} else if g := d.get(gi); g != nil {
		return g
	}
	var g *slotGroup[V]
	if len(sh.spare) > 0 {
		g, sh.spare = &sh.spare[0], sh.spare[1:]
	} else {
		g = new(slotGroup[V])
	}
	d.insert(gi, g) // the copy loops ask in ascending slot order
	nt.groupsEver.Add(1)
	nt.groupsLive.Add(1)
	return g
}

// waitUniformLocked waits out the node's latest merged busy period for a
// root copy arriving at virtual time at, under the usual overlap rule (an
// arrival predating the busy period passes through). Caller holds matMu.
func (n *node[V]) waitUniformLocked(cpu *hw.CPU, at uint64) {
	if u := &n.uni; u.n > 0 {
		if f := u.free[u.n-1]; f > at && at >= u.busyStart {
			cpu.AdvanceToAs(hw.CauseRootFork, f)
		}
	}
}

// unlockBits releases every slot bit of the frozen node n at the end of a
// copy of it: in real time only, for the copy waited for no earlier holder
// in virtual time, and neither will the next.
func (n *node[V]) unlockBits() {
	for w := range n.bits {
		n.bits[w].Store(0)
	}
}

// forkUnlock releases every slot bit of the live root n at the end of a
// fork. The uniform gate table is rewritten to one merged busy period — begun
// at the fork's arrival (or the table's earlier busyStart) and free now —
// which is the state per-slot gates would hold, in one plateau. Groups with
// storage release through their own gates (one materialized mid-fork carries
// the fork's busy period already: node.forkBusy).
func (n *node[V]) forkUnlock(cpu *hw.CPU, arrive uint64) {
	now := cpu.Now()
	n.matMu.Lock()
	n.forkForks--
	if n.forkForks == 0 {
		n.forkBusy = 0
	}
	merged := uniformGates{busyStart: arrive, n: 1}
	merged.free[0] = now
	if u := &n.uni; u.n > 0 {
		if u.busyStart < merged.busyStart {
			merged.busyStart = u.busyStart
		}
		if f := u.free[u.n-1]; f > now {
			merged.free[0] = f
		}
	}
	n.uni = merged
	for gi := groupsPerNode - 1; gi >= 0; gi-- {
		base := gi * slotsPerLine
		if g := n.groupLoad(gi); g != nil {
			for j := slotsPerLine - 1; j >= 0; j-- {
				idx := base + j
				cpu.ReleaseBitIn(&n.bits[idx>>6], uint64(1)<<(uint(idx)&63), &g.gates[j])
			}
		} else {
			n.bits[base>>6].And(^(uint64(0xF) << (uint(base) & 63)))
		}
	}
	n.matMu.Unlock()
}
