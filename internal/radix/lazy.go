package radix

import (
	"runtime"

	"radixvm/internal/hw"
)

// The generation fork: COW of the radix metadata itself.
//
// ForkLazy is O(1) in the size of the tree: it copies only the root node — in
// *link mode*, sharing the root's child subtrees with the child tree instead
// of copying them — and bumps the parent tree's generation, re-adopting the
// parent root into the new generation under the root's held bits. Every node
// below the root is now *foreign* to both trees (Tree.foreign), and the write
// paths path-copy a foreign node the first time they descend into it
// (divergeChild): the per-node copy of fork.go, billed ForkNodeCost virtual
// time at first divergence. A node neither side ever touches again is never
// copied — the metadata mirror of frame COW.
//
// Sharing discipline:
//
//   - node.links counts how many parent slots, across all trees of a fork
//     family, reference the node: a copy's link-sharing increments it;
//     divergence (which replaces a tree's link with a private copy) and
//     Tree.Release decrement it. The last dropLink releases the node's
//     *contents* (values via the OnRelease hook, child links recursively),
//     which keeps frame references balanced when one side of a fork exits
//     without ever touching most of the tree.
//   - A shared node is read-only to every tree: Lookup and group
//     materialization are safe (the group reads as the uniform state it
//     came out of), but every locking descent diverges first, so in-place
//     writes happen only under native nodes.
//   - Being read-only, a shared node has copies that are all born alike, in
//     the image cached on it (nodeImage). The image is written by the sweep
//     that builds it, under all of the node's bits, and by nobody
//     afterwards; what can still change in the node itself (a lookup
//     materializing a group, a dead child's link swung to empty) makes the
//     next divergence rebuild or abandon it. The divergence hook's writes
//     to the source's values (COW arming) do not: what the hook makes of a
//     copy may depend on the source alone.
//   - The snapshot is whole-tree atomic: a Range operation spanning nodes
//     lands entirely before or entirely after it (TestLazyForkRangeAtomicity).
//     Two mechanisms combine: ForkLazy drains all in-flight locked operations
//     through the per-CPU quiescence gate (cpuState.hold) before bumping the
//     generation — an operation that validated its path as native before the
//     bump would keep writing shared nodes in place, and one caught
//     mid-acquisition could be half-visible to the child — and after the
//     bump, every locked descent diverges foreign nodes before writing, so
//     by induction writes only ever land in nodes native to the writing
//     tree. Divergence itself acquires *all* of the shared node's slot bits,
//     so even racing divergences of one node serialize.
//   - The deadlock-free order is preserved: divergence holds the parent
//     slot's bit, then takes the child node's bits, which is the global
//     parent-before-child, ascending-VPN order every operation uses.

// ForkLazy clones t in O(1), as above. The child tree inherits t's hooks;
// OnDiverge is invoked now for values stored in the root
// node itself (they are copied immediately) and at divergence time for
// everything deeper. The caller must tear the child down with Tree.Release
// when it exits, or the shared subtrees' contents leak.
func (t *Tree[V]) ForkLazy(cpu *hw.CPU) *Tree[V] {
	// Drain in-flight locked operations and hold new ones out until the
	// snapshot is taken (the quiescence gate, above and on Tree.lazyForks).
	// The drain costs no virtual time — it models the brief kernel-level
	// fork/VM-op exclusion a real implementation gets from per-CPU reader
	// flags — and the caller must not hold a Range on t (self-deadlock).
	t.lazyForks.Add(1)
	for i := range t.cpus {
		// A CPU that never operated on t has no state yet; if it starts
		// now, its opEnter sees lazyForks raised and waits.
		if cs := t.cpus[i].Load(); cs != nil {
			for cs.hold.flag.Load() != 0 {
				runtime.Gosched()
			}
		}
	}
	defer t.lazyForks.Add(-1)

	nt := treeShell[V](t.m, t.rc)
	nt.hooks, nt.family = t.hooks, t.family
	root, arrive := nt.linkCopy(cpu, t.root, 1, false) // +1: the root's immortal ref
	nt.root = root
	// Re-adopt the parent root into the new generation while all of its
	// bits are still held: after the bits release, any descent from the
	// parent root sees a native root whose children are all foreign. The
	// child root is native to nt by construction (generation 0 of a fresh
	// tree). Plain stores are ordered before concurrent lockers' bit
	// acquisitions by the release/acquire pair on the packed bit words.
	newGen := t.gen.Add(1)
	t.root.gen = newGen
	t.root.forkUnlock(cpu, arrive)
	return nt
}

// linkCopy copies src into a new node of tree t in link mode: value slots
// are copied (invoking t's OnDiverge hook once per distinct value with the
// VPN range it covers: a leaf slot's page, a folded interior slot's whole
// span, a uniform fill once for the node's entire range), but child subtrees
// are *shared* — the copy links src's children directly, bumping their links
// counts. src's bits are all held when linkCopy returns; the caller publishes
// the copy (and performs any generation re-adoption) and then releases them
// with src.forkUnlock(cpu, arrive).
//
// frozen says that src is foreign to every tree — divergeChild's case, not
// ForkLazy's root — so the copy is born in src's image, which this sweep
// builds if src has none that is current, and otherwise only checks slot by
// slot. Either way it acquires, charges, pins, links and reports to the hook
// exactly as when mirroring, in the same order; what differs is where, if
// anywhere, a slot's born state is written (shell.cell).
func (t *Tree[V]) linkCopy(cpu *hw.CPU, src *node[V], extra int64, frozen bool) (*node[V], uint64) {
	arrive := cpu.Now()
	src.matMu.Lock()
	src.waitUniformLocked(cpu, arrive)
	src.forkForks++
	if src.forkForks == 1 || arrive < src.forkBusy {
		src.forkBusy = arrive
	}
	// A source that is itself a copy may still hold groups in its image
	// only. The sweep counts, bills, charges and mirrors groups with
	// storage: realize them.
	src.materializeLocked(0, groupsPerNode-1, false)
	src.matMu.Unlock()

	dst := t.cloneShell(cpu, src, frozen)
	cs := t.cpu(cpu)
	fill := dst.uniSt != nil
	var used int64
	if fill {
		used = SlotsPerNode
	}
	sp := span(src.level)
	for idx := 0; idx < SlotsPerNode; idx++ {
		g, st, child := t.sweepSlot(cpu, src, idx)
		// A slot the copy's header does not already stand for — one that
		// diverged from src's fill, to empty included, or anything a node
		// without a fill holds — goes into the copy's group.
		mirror := g != nil && (st != nil || fill)
		if dst.img != nil && !dst.build && !dst.img.agrees(idx, st, mirror) {
			dst.abandon(t, src, idx)
		}
		if !mirror {
			continue
		}
		cell, store := dst.cell(t, cs, src, idx, st)
		switch {
		case st == nil:
			used--
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
				t.hooks.OnDiverge(cpu, lo, lo+sp, st.val, dv)
			}
		}
		if st != nil && !fill {
			used++
		}
	}
	// A concurrent copy of src may have merged its busy period into the
	// uniform table after our entry wait (it can release between our entry
	// and our first bit load). Consult the merged table once more now that
	// every bit is ours, so overlapping copies serialize in virtual time
	// however the real-time race resolved.
	src.matMu.Lock()
	src.waitUniformLocked(cpu, arrive)
	src.matMu.Unlock()
	if fill {
		dv := copyInto(&dst.uniStore, &dst.uniVal, src.uniSt.val)
		if t.hooks != nil {
			t.hooks.OnDiverge(cpu, src.base, src.base+uint64(SlotsPerNode)*sp, src.uniSt.val, dv)
		}
	}
	if dst.build {
		// The image is complete, and every bit of src still held: the copy
		// gets its directory and src the image, for its later copies.
		dst.dir.Store(newGroupDirOf[V](dst.img.bits))
		src.copyImg.Store(dst.img)
	}
	dst.obj = t.rc.NewObj(used+extra, freeNode[V])
	dst.obj.Data = dst.node
	return dst.node, arrive
}

// divergeChild path-copies the foreign node child — pinned by the caller,
// currently linked from n's slot idx — into a native copy, publishing it in
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
	st := n.slot(idx).Load()
	if st == nil || st.child != child.obj {
		n.release(cpu, idx)
		t.unpin(cpu, child)
		return nil
	}
	// Copy the shared node under all of its bits, with one creator pin for
	// the caller. The copy inherits the parent *node's* generation (native
	// by construction: descent only writes under native parents).
	dst, arrive := t.linkCopy(cpu, child, 1, true)
	dst.gen = n.gen
	dst.parent = n
	dst.parentIdx = idx
	n.slot(idx).Store(&slotState[V]{child: dst.obj})
	cpu.Write(n.line(idx))
	child.forkUnlock(cpu, arrive)
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
	if n.links.Add(-1) > 0 {
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
// the GC keeps the memory valid under them. The parent link is severed first
// so freeNode does not CAS a parent slot that may itself already be released
// or recycled — so these nodes go to the GC rather than the per-CPU pools.
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
			if obj := t.rc.TryGet(cpu, st.child.Weak()); obj != nil {
				child := obj.Data.(*node[V])
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
	t.dropLink(cpu, t.root)
	t.rc.Dec(cpu, t.root.obj)
}
