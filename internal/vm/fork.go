package vm

import "radixvm/internal/hw"

// Fork implements System for RadixVM: the O(1) generation fork. The radix
// tree is snapshotted by a root-only link copy plus a generation bump
// (radix.Tree.ForkLazy), and the parent's translations are invalidated
// wholesale (MMU.Reset — O(cores holding translations), independent of the size
// of the space). Every later access on either side re-faults through the
// metadata, whose locking descent path-copies the touched shared nodes first;
// the divergence hook COW-arms the copied pages at that point, so the per-page
// work of a fork — IncRef, COW flagging, share counting — happens per
// *touched* node, not per existing node. What the copies share:
//
//   - Never-faulted metadata (including folded interior entries) copies as
//     is; each side faults its own frames later, privately.
//   - File-backed pages copy unfaulted: each side refaults through the page
//     cache, to the same frame (OnDiverge).
//   - Anonymous frames become copy-on-write on both sides (OnDiverge).
//
// Ordering: the tree snapshot (which bumps the tree generation under the
// root's held bits) comes first, then the fork epoch bump, then the
// invalidation. A fault that read the old epoch before the snapshot is
// either swept by the Reset or caught by its post-fill epoch validation; a
// fault that reads the new epoch necessarily locks metadata after the
// generation bump and therefore diverges before deriving a translation.
// Frame *contents* snapshot at Reset completion — a racing core may write
// through a pre-fork translation until its table is swept, exactly as a
// write that beat the fork — while the metadata snapshot is atomic at the
// generation bump, for the whole tree (see radix/lazy.go). The child starts
// with no translations anywhere (newChildMMU).
func (as *AddressSpace) Fork(cpu *hw.CPU) (System, error) {
	cpu.Stats().Forks++
	cpu.Tick(RadixSyscallCost)
	as.noteActive(cpu)

	child := &AddressSpace{m: as.m, rc: as.rc, alloc: as.alloc, mmu: as.newChildMMU()}
	child.tree = as.tree.ForkLazy(cpu)
	child.wireTree()
	as.forkGen.Add(1)
	as.mmu.Reset(cpu, as.activeSet())
	return child, nil
}

// OnDiverge is the radix tree's divergence hook (radix.Hooks): the per-page
// half of a fork, run when a snapshot-shared node is path-copied on first
// touch. src is the shared mapping, dst the copy that becomes private to the
// diverging tree. The first divergence counts the shared original and the
// copy as COW shares (2), later divergences add their copy (1) — writing
// src.COW is legal here because the hook runs under every slot bit of src's
// node. The hook reports the first divergence's write to src, which the copy
// is charged as a write of src's line; every later divergence only reads it.
// The original's share and reference drop when its node's last link goes
// away (OnRelease), so however a fork family diverges and exits, k
// surviving mappings of a frame hold exactly k references, and breakCOW's
// sole-share ownership test stays exact.
//
// No shootdown runs here: the forking side's translations were invalidated
// wholesale at fork time and shared nodes never supply new ones (every
// locking descent diverges first), so no stale writable translation for
// these pages can exist anywhere.
//
// Contract with the tree (radix.Hooks): dst arrives as a copy of
// *src, and what the hook leaves in it may depend on src alone — not on the
// core, the diverging space, or how many divergences came before. The tree
// keeps one finished dst per shared mapping (the node's image) and hands
// every space that diverges from src a copy of that; the hook still runs
// once per divergence, for its effects on src and the frame (the reference
// and share counts below), with a scratch dst. The function keeps to it: dst
// ends as *src with no TLBCores; no frame if src's is a file's; and COW set
// exactly when src has an anonymous frame — whether or not an earlier
// divergence armed src already.
func (as *AddressSpace) OnDiverge(cpu *hw.CPU, lo, hi uint64, src, dst *Mapping) (wroteSrc bool) {
	dst.TLBCores = hw.CoreSet{} // no translation derives from a shared node
	if src.Frame == nil {
		return false // metadata-only copy
	}
	if src.Back.File != nil {
		// A file frame enters a private mapping only through File.pageFor,
		// where the space joins the page's holder set: the copy is born
		// unfaulted and refaults through the page cache. Handing it src's
		// frame would give a child forked from a parent that had faulted the
		// page a frame no revocation could find.
		dst.Frame, dst.altCtr = nil, nil
		return false
	}
	as.alloc.IncRef(cpu, src.Frame) // the diverged copy's reference
	dst.COW = true
	if src.COW {
		src.Frame.AddCOWShares(cpu, 1)
		return false
	}
	src.COW = true
	src.Frame.AddCOWShares(cpu, 2) // the shared original and this copy
	return true
}

// OnRelease is the radix tree's release hook (radix.Hooks): the teardown half
// of unmapLocked, run for each mapping dropped when a subtree's last
// referencing tree releases it — Exit, or a divergence unlinking the
// shared original after both sides copied it. No shootdown runs here: a
// shared node's pages have no translations (see OnDiverge), and Exit
// resets the dying space's MMU wholesale. v is read-only here: a mapping its
// space never touched may still live in an image shared with the other
// copies of its node.
//
// A file page leaves its holder set here only while as is exiting. The hook
// runs on the space whose tree built the node, also when another space's
// divergence or exit drops the node's last link — as may be alive then, and
// hold the page through its own copy of the node.
func (as *AddressSpace) OnRelease(cpu *hw.CPU, lo, hi uint64, v *Mapping) {
	if v.Frame == nil {
		return
	}
	if v.COW {
		v.Frame.DropCOWShare(cpu)
	}
	as.alloc.DecRef(cpu, v.Frame)
	if v.altCtr != nil {
		v.altCtr.Dec(cpu)
	}
	if v.Back.File != nil && as.exited.Load() {
		v.Back.File.dropHolder(cpu, v.Back.Offset+(lo-v.Start), as)
	}
}

// Exit tears the address space down whole: the tree releases its root —
// dropping links on snapshot-shared subtrees and releasing outright-owned
// ones, frame references draining through OnRelease — and the MMU's
// translations are invalidated wholesale. For a forked child this is O(its
// own divergences) instead of the O(tree) unmap sweep teardown would
// otherwise cost (a Munmap of a shared subtree path-copies it first), which
// keeps the template-clone fleet shape (fork, touch a little, exit) cheap end
// to end. The address space must not be used after Exit, and no concurrent
// operations may be in flight.
func (as *AddressSpace) Exit(cpu *hw.CPU) {
	cpu.Tick(RadixSyscallCost)
	as.noteActive(cpu)
	// Fence file-page revocations: once exited is set no writeback walks
	// this tree again, and any revoke already inside the tree finished
	// before the write lock was granted.
	as.revokeMu.Lock()
	as.exited.Store(true)
	as.revokeMu.Unlock()
	as.tree.Release(cpu)
	as.mmu.Reset(cpu, as.activeSet())
}

// newChildMMU builds a fresh MMU of the same design as the parent's, so a
// Figure 9 shared-table ablation forks shared-table children.
func (as *AddressSpace) newChildMMU() MMU {
	if _, shared := as.mmu.(*SharedMMU); shared {
		return NewSharedMMU(as.m)
	}
	return NewPerCoreMMU(as.m)
}

// breakCOW resolves a write fault on a copy-on-write page. The caller
// holds the page's metadata lock, so breaks of one page in one address
// space serialize; breaks of the same frame from different address spaces
// coordinate only through the frame's atomic COW share count. When this
// mapping is the last COW share standing, it simply takes ownership — the
// frame is copied exactly once per genuine sharing, never for the final
// owner. Precise per-page metadata is what makes that safe here; the
// baselines' region-granular metadata cannot prove soleness, so they
// always copy.
func (as *AddressSpace) breakCOW(cpu *hw.CPU, vpn uint64, v *Mapping) {
	cpu.Stats().COWBreaks++
	orig := v.Frame
	v.COW = false
	if n := orig.COWShares(); n <= 1 {
		// Sole share left (or a share whose count already drained): own
		// the frame in place. Other cores' cached read-only translations
		// still map the right frame, so nothing needs shooting down; a
		// writer among them traps and re-fills with full rights.
		if n == 1 {
			orig.DropCOWShare(cpu)
		}
		return
	}
	nf := as.alloc.Alloc(cpu) // the zeroing charge stands in for the copy
	nf.CopyFrom(orig)
	orig.DropCOWShare(cpu) // only after the copy: the last sharer writes in place
	v.Frame = nf
	// Cached translations elsewhere still map the copied-from frame;
	// invalidate them so their next access re-faults to the private copy.
	// Per-core tables interrupt exactly the other cores that faulted the
	// page, and none at all when there are none. The shared table cannot
	// skip an empty set: a core that walked the PTE another core's fault
	// installed caches it without ever being recorded, so it broadcasts.
	// The caller re-adds this core after its fill.
	targets := v.TLBCores
	targets.Remove(cpu.ID())
	as.mmu.Shootdown(cpu, vpn, vpn+1, targets, as.activeSet())
	v.TLBCores = hw.CoreSet{}
	as.alloc.DecRef(cpu, orig)
}
