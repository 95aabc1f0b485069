package radix

import (
	"radixvm/internal/hw"
)

// The generation fork: COW of the radix metadata itself.
//
// ForkLazy is O(1) in the size of the tree: it bumps the parent tree's
// generation, which freezes the parent's root together with every node below
// it, and gives the child tree a copy of that root — in *link mode*, sharing
// the root's child subtrees instead of copying them. Every node below the
// root is now *foreign* to both trees (Tree.foreign), and so is the parent's
// root to the parent: the write paths path-copy a foreign node the first time
// they descend into it (divergeChild, and ownRoot for the parent's root), with
// the one copy protocol of fork.go, billed ForkNodeCost virtual time per copy.
// A node neither side ever touches again is never copied — the metadata
// mirror of frame COW.
//
// Sharing discipline:
//
//   - node.links counts how many parent slots, across all trees of a fork
//     family, reference the node: a copy's link-sharing increments it;
//     divergence (which replaces a tree's link with a private copy) and
//     Tree.Release decrement it. A tree's root pointer counts as a link too,
//     dropped when ownRoot replaces the root. The last dropLink releases the
//     node's *contents* (values via the OnRelease hook, child links
//     recursively), which keeps frame references balanced when one side of a
//     fork exits without ever touching most of the tree.
//   - A shared node is frozen: read-only to every tree. Lookup and group
//     materialization are safe (the group reads as the uniform state it
//     came out of), but every locking descent copies first, so in-place
//     writes happen only under native nodes.
//   - Being read-only, a frozen node has copies that are all born alike, in
//     the image cached on it (nodeImage). The image is written by the sweep
//     that builds it, under all of the node's bits, and by nobody
//     afterwards; what can still change in the node itself (a lookup
//     materializing a group, a dead child's link swung to empty) makes the
//     next copy rebuild it. The divergence hook's writes to the
//     source's values (COW arming) do not: what the hook makes of a copy may
//     depend on the source alone.
//   - The snapshot is whole-tree atomic: a Range operation spanning nodes
//     lands entirely before or entirely after it (TestLazyForkRangeAtomicity).
//     Two mechanisms combine: ForkLazy drains all in-flight locked operations
//     through the per-CPU quiescence gate (cpuState.hold) before bumping the
//     generation — an operation that validated its path as native before the
//     bump would keep writing shared nodes in place, and one caught
//     mid-acquisition could be half-visible to the child — and after the
//     bump, every locked operation copies the root and diverges foreign nodes
//     before writing, so by induction writes only ever land in nodes native
//     to the writing tree. A copy is a reader of the frozen node: it reads
//     the node's lines and waits for no earlier copy in virtual time, so
//     sibling copies of one node overlap. It still takes all of the node's
//     slot bits, uncharged, which orders the hook's writes to the source's
//     values (COW arming) against every other holder.
//   - The deadlock-free order is preserved: a copy holds the parent slot's
//     bit (the tree's root bit, for a root), then takes the copied node's
//     bits, which is the global parent-before-child, ascending-VPN order
//     every operation uses.

// ForkLazy clones t in O(1), as above. The child tree inherits t's hooks;
// OnDiverge is invoked now for values stored in the root node itself (the
// child's copy holds them at once), again for them when t next writes, and at
// divergence time for everything deeper. The caller must tear the child down
// with Tree.Release when it exits, or the shared subtrees' contents leak.
func (t *Tree[V]) ForkLazy(cpu *hw.CPU) *Tree[V] {
	// Drain in-flight locked operations and hold new ones out until the
	// snapshot is taken (the quiescence gate, above and on Tree.lazyForks),
	// which makes the freeze atomic against every operation. The drain costs no virtual
	// time — it models the brief kernel-level fork/VM-op exclusion a real
	// implementation gets from per-CPU reader flags — and the caller must
	// not hold a Range on t (self-deadlock).
	t.lazyForks++
	for i := range t.cpus {
		// A CPU that never operated on t has no state yet; if it starts
		// now, its opEnter sees lazyForks raised and waits.
		if cs := t.cpus[i]; cs != nil {
			for cs.holds != 0 {
				cpu.Stall()
			}
		}
	}

	// Leaving the generation freezes the root and everything below it. The
	// child's copy is native to it by construction (generation 0 of a fresh
	// tree); +1: the root's immortal reference.
	t.gen++
	root := t.root
	nt := treeShell[V](t.m, t.rc)
	nt.hooks, nt.family = t.hooks, t.family
	nt.root = nt.linkCopy(cpu, root, 1)
	root.unlockBits()
	t.lazyForks--
	return nt
}

// ownRoot returns t's root for a locking operation to descend from, first
// replacing it with a native copy if a fork froze it: the root's divergence.
// The tree's root bit stands for the parent slot divergeChild takes, so that
// racing operations copy the root once; the old root's last link and its
// immortal reference go with this tree's pointer to it. A tree that never
// forked never gets past the first check.
func (t *Tree[V]) ownRoot(cpu *hw.CPU) *node[V] {
	root := t.root
	if !t.foreign(root) {
		return root
	}
	cpu.Write(&t.rootLine)
	cpu.AcquireBitIn(&t.rootBit, 1, &t.rootGate, hw.CauseSlotWait)
	// Re-read under the bit: a racing operation may have copied it first.
	if root = t.root; t.foreign(root) {
		old := root
		root = t.linkCopy(cpu, old, 1)
		t.root = root
		cpu.Write(&t.rootLine)
		old.unlockBits()
		t.dropLink(cpu, old)
		t.rc.Dec(cpu, old.obj)
	}
	cpu.ReleaseBitIn(&t.rootBit, 1, &t.rootGate)
	return root
}

// linkCopy copies the frozen node src — foreign to every tree linking it —
// into a new node of tree t in link mode: value slots are copied (invoking
// t's OnDiverge hook once per distinct value with the VPN range it covers: a
// leaf slot's page, a folded interior slot's whole span, a uniform fill once
// for the node's entire range), but child subtrees are *shared* — the copy
// links src's children directly, bumping their links counts. src's bits are
// all held when linkCopy returns; the caller links the copy in and then
// releases them (src.unlockBits).
//
// The copy is a reader of src: it reads each of src's group lines once and
// waits for no earlier copy in virtual time, so sibling copies of one node
// overlap. It writes a group's line only when the hook wrote a value in it,
// and it still takes src's bits, uncharged, which keeps a hook's
// check-then-write of a source value exact against every other holder. The copy
// is born in src's image, which this sweep builds if src has none that is
// current, and otherwise checks slot by slot, building a new one from the
// first slot that disagrees (shell.rebuild).
func (t *Tree[V]) linkCopy(cpu *hw.CPU, src *node[V], extra int64) *node[V] {
	// A source that is itself a copy may still hold groups in its image
	// only. The sweep counts, bills and reads groups with storage: realize
	// them.
	src.materializeLocked(0, groupsPerNode-1, false)

	dst := t.cloneShell(cpu, src)
	cs := t.cpu(cpu)
	// Group by group, from the directory the copy was sized from: a group a
	// lookup materializes meanwhile holds the fill it came out of, which the
	// copy's header stands for.
	for gi := 0; gi < groupsPerNode; gi++ {
		g := dst.over.get(gi)
		if g != nil {
			cpu.Read(&g.line)
		}
		wrote := false
		for j := 0; j < slotsPerLine; j++ {
			idx := gi*slotsPerLine + j
			cpu.LockBit(&src.bits[idx>>6], uint64(1)<<(uint(idx)&63))
			st, child := src.uniSt, (*node[V])(nil) // no group: the fill
			if g != nil {
				st, child = t.readSlot(cpu, src, g, idx)
			}
			if dst.take(t, cpu, cs, src, idx, g, st, child) && !wrote {
				cpu.Write(&g.line)
				wrote = true
			}
		}
	}
	if dst.uniSt != nil {
		dv := copyInto(&dst.uniStore, &dst.uniVal, src.uniSt.val)
		if t.hooks != nil {
			sp := span(src.level)
			t.hooks.OnDiverge(cpu, src.base, src.base+uint64(SlotsPerNode)*sp, src.uniSt.val, dv)
		}
	}
	if dst.img != nil {
		// The image is complete, and every bit of src still held: the copy
		// gets its directory, and src the image if this sweep built it, for
		// its later copies.
		dst.dir = newGroupDirOf[V](dst.img.bits)
		if dst.build {
			src.copyImg = dst.img
		}
	}
	dst.obj = t.rc.NewObj(dst.used+extra, freeNode[V])
	dst.obj.Data = dst.node
	return dst.node
}

// divergeChild path-copies the foreign node child — pinned by the caller,
// currently linked from n's slot idx — into a native copy, linking it into
// the slot and dropping the shared node's link. It returns the replacement
// with one traversal pin for the caller, or nil if the slot no longer
// references child (another operation diverged it first, or the child
// died): the caller re-reads the slot. The caller's pin on child is consumed
// either way.
func (t *Tree[V]) divergeChild(cpu *hw.CPU, n *node[V], idx int, child *node[V]) *node[V] {
	// Take the parent slot's bit: divergence is a write to the slot, and
	// the bit is what serializes racing divergences of the same link.
	cpu.Write(n.line(idx))
	n.acquire(cpu, idx)
	st := *n.slot(idx)
	if st == nil || st.child != child.obj {
		n.release(cpu, idx)
		t.unpin(cpu, child)
		return nil
	}
	// Copy the shared node under all of its bits, with one creator pin for
	// the caller. The copy inherits the parent *node's* generation (native
	// by construction: descent only writes under native parents).
	dst := t.linkCopy(cpu, child, 1)
	dst.gen = n.gen
	dst.parent = n
	dst.parentIdx = idx
	*n.slot(idx) = &slotState[V]{child: dst.obj}
	cpu.Write(n.line(idx))
	child.unlockBits()
	// This tree's link moved to the private copy; drop the shared one.
	// The caller's pin keeps child alive until the unpin below.
	t.dropLink(cpu, child)
	n.release(cpu, idx)
	t.unpin(cpu, child)
	return dst
}

// dropLink records that one parent slot stopped referencing n; the last
// link releases the node's contents. Callers must hold a traversal pin on n
// (or otherwise know it cannot be reclaimed mid-call).
func (t *Tree[V]) dropLink(cpu *hw.CPU, n *node[V]) {
	if n.links--; n.links > 0 {
		return
	}
	releaseContents(cpu, n)
}

// releaseContents drops the contents of a node no tree links anymore: every
// value is reported to the OnRelease hook (OnDiverge's convention: the
// uniform fill once, diverged slots individually), carriers are retired, child
// links are dropped recursively, and the used-slot references drain so
// Refcache reclaims the node. No new descent can reach n (no tree's slots
// point at it); lock-free readers that pinned it earlier only ever read, and
// the GC keeps the memory valid under them. Both ends of n's parent links are
// severed, so that no freeNode CASes a slot of a node that is released or
// recycled: n's own (n goes to the GC rather than the per-CPU pools), and
// that of each child still naming n, which other linkers may keep alive long
// after n's count drained — its slot in n was counted used here. A child
// that dies meanwhile is cleaned from their slots lazily (loadChild).
func releaseContents[V any](cpu *hw.CPU, n *node[V]) {
	t := n.tree
	n.parent = nil
	sp := span(n.level)
	if n.uniSt != nil && t.hooks != nil {
		hi := n.base + uint64(SlotsPerNode)*sp
		t.hooks.OnRelease(cpu, n.base, hi, n.uniSt.val)
	}
	used := 0
	for idx := 0; idx < SlotsPerNode; idx++ {
		st := n.peek(idx)
		if st == nil {
			continue
		}
		used++
		if st.child != nil {
			if obj := t.rc.TryGet(cpu, st.child); obj != nil {
				child := obj.Data.(*node[V])
				if child.parent == n { // two releasers may share child
					child.parent = nil
				}
				t.dropLink(cpu, child)
				t.rc.Dec(cpu, obj)
			}
			continue
		}
		if st != n.uniSt {
			if t.hooks != nil && st.val != nil {
				lo := n.slotBase(idx)
				t.hooks.OnRelease(cpu, lo, lo+sp, st.val)
			}
			if st.carrier != nil {
				t.retireCarrier(cpu, st.carrier)
			}
		}
	}
	for i := 0; i < used; i++ {
		t.rc.Dec(cpu, n.obj)
	}
}

// Release tears down a tree: the root's contents are released as a shared
// node's would be (a subtree another tree still links survives untouched)
// and the root's immortal reference is dropped. This is how a lazily forked
// child exits in O(its own divergences) instead of paying an O(tree) unmap
// sweep, and how the parent side of a fork family retires. The caller must
// guarantee no concurrent operations on t are in flight.
func (t *Tree[V]) Release(cpu *hw.CPU) {
	root := t.root
	t.dropLink(cpu, root)
	t.rc.Dec(cpu, root.obj)
}
