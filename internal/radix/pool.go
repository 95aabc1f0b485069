package radix

import "radixvm/internal/hw"

// Per-CPU node pools, mirroring sv6's per-core slab allocators: freeNode
// recycles a reclaimed node onto the freeing core's pool instead of feeding
// the garbage collector, and every node birth (Tree.header) pops from the
// allocating core's pool, so steady-state expansion allocates nothing.
//
// Safety of recycling: a node is freed only when its true reference count
// is zero, meaning no traversal pins and no used slots, so no reader can
// hold the node itself. Stale slotState pointers may still reference the
// node's *refcache.Obj, but every incarnation gets a fresh Obj (and thus a
// fresh weak reference), so a TryGet through a stale link can only fail —
// it can never resurrect the recycled memory under its new identity.

// poolCap bounds each CPU's free list; beyond it nodes fall back to the GC.
const poolCap = 64

// poolGroupCap bounds how many slot groups a recycled node may keep.
// Fault-path chain nodes diverge in one or two groups, which are worth
// keeping (the next incarnation re-fills them instead of re-allocating); a
// node that diverged widely would make every later incarnation re-fill all
// of them — and pin ~18 KB in the pool — so its groups are dropped and it
// recycles compact.
const poolGroupCap = 4

// getNode pops a recycled node for cpu — fully reset: empty slots, unheld
// bits, cold lines — or nil if the pool is empty.
func (t *Tree[V]) getNode(cpu *hw.CPU) *node[V] {
	cs := t.cpu(cpu)
	if n := len(cs.pool); n > 0 {
		nd := cs.pool[n-1]
		cs.pool[n-1] = nil
		cs.pool = cs.pool[:n-1]
		return nd
	}
	return nil
}

// recycle resets n and pushes it onto cpu's pool. Called from freeNode,
// after the parent slot has been unlinked, so no core can reach n. Up to
// poolGroupCap slot groups stay attached, reset to the empty cold state.
func (t *Tree[V]) recycle(cpu *hw.CPU, n *node[V]) {
	cs := t.cpu(cpu)
	if len(cs.pool) >= poolCap {
		// Pool full: let the GC take the node and its groups.
		t.groupsLive.Add(-countGroups(n))
		return
	}
	var zeroV V
	n.parent = nil
	n.obj = nil
	n.uniSt = nil
	n.uniStore = slotState[V]{}
	n.uniVal = zeroV // drop value references for the GC
	n.uni = uniformGates{}
	// Plain resets are legal: the node is unreachable, and the next
	// incarnation is published through the parent slot's atomic store.
	// An image-born copy drops its directory too: its entries without
	// storage mean nothing without the image.
	if cnt := countGroups(n); cnt > poolGroupCap || n.img != nil {
		n.dir.Store(nil)
		t.groupsLive.Add(-cnt)
	} else {
		n.forEachGroup(func(_ int, g *slotGroup[V]) { resetGroup(g) })
	}
	n.img = nil
	n.copyImg.Store(nil)
	for w := range n.bits {
		n.bits[w].Store(0)
	}
	cs.pool = append(cs.pool, n)
}

// countGroups returns the number of n's groups that have storage.
func countGroups[V any](n *node[V]) (cnt int64) {
	n.forEachGroup(func(int, *slotGroup[V]) { cnt++ })
	return cnt
}
