// Package bonsaivm is the Bonsai VM baseline (Clements et al., ASPLOS
// 2012 [7]): page faults are lock-free against an RCU-style persistent
// balanced tree of regions, but mmap and munmap still serialize on the
// address space lock — so it matches RadixVM on pagefault-heavy workloads
// (Figure 4, 8 MB) and collapses on mmap-heavy ones (64 KB).
//
// Like the real Bonsai system it uses a single shared page table and
// broadcast TLB shootdowns.
package bonsaivm

import (
	"radixvm/internal/bonsai"
	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/pagetable"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

type region struct {
	start, end uint64
	prot       vm.Prot
	back       vm.Backing
	// cow marks an anonymous region whose already-faulted frames are (or
	// were) shared with a forked address space; see the linuxvm vma for
	// the region-granular semantics. Lock-free faulters read it from
	// their snapshot, so like prot it is never mutated in place — fork
	// republishes fresh region structs.
	cow bool
}

// permBits returns the rights a translation for r may carry: the region's
// protection, minus write while the region is copy-on-write.
func (r *region) permBits() pagetable.Perm {
	perm := vm.PermBits(r.prot)
	if r.cow {
		perm &^= pagetable.PermW
	}
	return perm
}

// AddressSpace is a Bonsai-like address space.
type AddressSpace struct {
	m     *hw.Machine
	rc    *refcache.Refcache
	alloc *mem.Allocator

	lock    hw.Lock // serializes mmap/munmap, NOT pagefault
	regions *bonsai.Tree[region]
	mmu     *vm.SharedMMU

	// fileRegs lists the files this space is registered with as a mapper,
	// in registration order; anyFile gates the sync walk so anonymous-only
	// spaces never pay it. Both guarded by lock. Because region updates
	// republish structs rather than mutating them, membership is synced by
	// diffing the current snapshot after each map/unmap (syncFileRegs)
	// instead of counting individual insertions.
	fileRegs []*vm.File
	anyFile  bool

	active vm.ActiveSet
}

// New creates an empty Bonsai-like address space.
func New(m *hw.Machine, rc *refcache.Refcache, alloc *mem.Allocator) *AddressSpace {
	return &AddressSpace{
		m:       m,
		rc:      rc,
		alloc:   alloc,
		regions: bonsai.New[region](),
		mmu:     vm.NewSharedMMU(m),
	}
}

// Name implements vm.System.
func (as *AddressSpace) Name() string { return "bonsai" }

// PageTableBytes implements vm.System.
func (as *AddressSpace) PageTableBytes() uint64 { return as.mmu.Bytes() }

func (as *AddressSpace) noteActive(cpu *hw.CPU) { as.active.Note(cpu.ID()) }

func (as *AddressSpace) activeSet() hw.CoreSet { return as.active.Get() }

// Mmap implements vm.System: serialized on the address space lock; the
// new region tree is published atomically for lock-free faulters.
func (as *AddressSpace) Mmap(cpu *hw.CPU, vpn, npages uint64, opts vm.MapOpts) error {
	if npages == 0 {
		return vm.ErrRange
	}
	cpu.Stats().Mmaps++
	cpu.Tick(vm.LinuxSyscallCost)
	as.noteActive(cpu)
	cpu.Acquire(&as.lock)
	as.removeOverlapsLocked(cpu, vpn, vpn+npages)
	as.regions.Insert(cpu, vpn, &region{
		start: vpn,
		end:   vpn + npages,
		prot:  opts.Prot,
		back:  vm.Backing{File: opts.File, Offset: opts.Offset},
	})
	if opts.File != nil {
		as.anyFile = true
	}
	as.syncFileRegs(cpu)
	cpu.Release(&as.lock)
	return nil
}

// syncFileRegs reconciles this space's file-mapper registrations with the
// regions currently published: register with files that gained a first
// region, unregister from files that lost their last one. Walk order (and
// so registration order) follows region keys, keeping the file's mapper
// list deterministic. Caller holds the address-space lock; host-side
// bookkeeping only, no virtual cost.
func (as *AddressSpace) syncFileRegs(cpu *hw.CPU) {
	if !as.anyFile {
		return
	}
	cur := make(map[*vm.File]bool, 2)
	var order []*vm.File
	as.regions.Snapshot().Ascend(cpu, 0, func(_ uint64, v *region) bool {
		if f := v.back.File; f != nil && !cur[f] {
			cur[f] = true
			order = append(order, f)
		}
		return true
	})
	old := make(map[*vm.File]bool, len(as.fileRegs))
	kept := as.fileRegs[:0]
	for _, f := range as.fileRegs {
		old[f] = true
		if cur[f] {
			kept = append(kept, f)
		} else {
			f.UnregisterMapper(as)
		}
	}
	as.fileRegs = kept
	for _, f := range order {
		if !old[f] {
			as.fileRegs = append(as.fileRegs, f)
			f.RegisterMapper(as)
		}
	}
}

// Munmap implements vm.System.
func (as *AddressSpace) Munmap(cpu *hw.CPU, vpn, npages uint64) error {
	if npages == 0 {
		return vm.ErrRange
	}
	cpu.Stats().Munmaps++
	cpu.Tick(vm.LinuxSyscallCost)
	as.noteActive(cpu)
	cpu.Acquire(&as.lock)
	as.removeOverlapsLocked(cpu, vpn, vpn+npages)
	as.syncFileRegs(cpu)
	cpu.Release(&as.lock)
	return nil
}

// overlapsLocked gathers (by value, from the current snapshot) every
// region intersecting [lo, hi), in ascending start order; the caller holds
// the address-space lock.
func (as *AddressSpace) overlapsLocked(cpu *hw.CPU, lo, hi uint64) []region {
	snap := as.regions.Snapshot()
	var overlaps []region
	if k, v, ok := snap.Floor(cpu, lo); ok && k < lo && v.end > lo {
		overlaps = append(overlaps, *v)
	}
	snap.Ascend(cpu, lo, func(k uint64, v *region) bool {
		if k >= hi {
			return false
		}
		overlaps = append(overlaps, *v)
		return true
	})
	return overlaps
}

func (as *AddressSpace) removeOverlapsLocked(cpu *hw.CPU, lo, hi uint64) {
	overlaps := as.overlapsLocked(cpu, lo, hi)
	if len(overlaps) == 0 {
		return
	}
	for _, o := range overlaps {
		as.regions.Delete(cpu, o.start)
		if o.start < lo {
			as.regions.Insert(cpu, o.start, &region{
				start: o.start, end: lo, prot: o.prot, back: o.back, cow: o.cow,
			})
		}
		if o.end > hi {
			nb := o.back
			if nb.File != nil {
				nb.Offset += hi - o.start
			}
			as.regions.Insert(cpu, hi, &region{start: hi, end: o.end, prot: o.prot, back: nb, cow: o.cow})
		}
	}
	var frames []*mem.Frame
	as.mmu.PageTable().UnmapRangeFunc(cpu, lo, hi, func(_, pfn uint64) {
		if f := as.alloc.ByPFN(pfn); f != nil {
			frames = append(frames, f)
		}
	})
	as.mmu.ShootdownTLBOnly(cpu, lo, hi, as.activeSet())
	for _, f := range frames {
		as.alloc.DecRef(cpu, f)
	}
}

// Mprotect implements vm.System: like mmap/munmap it serializes on the
// address space lock — the Bonsai design only makes *faults* lock-free —
// republishing the affected regions with the new protection (RCU-style:
// fresh region structs, never in-place mutation, so concurrent lock-free
// faulters always read a consistent region). Revoked rights downgrade the
// shared table's PTEs and broadcast a TLB flush; granted rights are
// realized lazily by protection faults.
func (as *AddressSpace) Mprotect(cpu *hw.CPU, vpn, npages uint64, prot vm.Prot) error {
	if npages == 0 {
		return vm.ErrRange
	}
	cpu.Stats().Mprotects++
	cpu.Tick(vm.LinuxSyscallCost)
	as.noteActive(cpu)
	cpu.Acquire(&as.lock)
	defer cpu.Release(&as.lock)
	lo, hi := vpn, vpn+npages

	overlaps := as.overlapsLocked(cpu, lo, hi)
	covered := lo
	revoked := false
	hole := len(overlaps) == 0 || overlaps[0].start > lo
	for _, o := range overlaps {
		clipLo, clipHi := max(lo, o.start), min(hi, o.end)
		if clipLo > covered {
			hole = true
		}
		covered = clipHi
		if o.prot&^prot != 0 {
			revoked = true
		}
		shifted := func(start uint64) vm.Backing {
			nb := o.back
			if nb.File != nil {
				nb.Offset += start - o.start
			}
			return nb
		}
		// Publish without ever uncovering a page: faulters read a
		// lock-free snapshot per call, so insert the higher-key pieces
		// first (while o's full-width entry still covers them from
		// below) and finish by atomically replacing o's own key with
		// its leftmost piece — never Delete.
		if o.end > hi {
			as.regions.Insert(cpu, hi, &region{start: hi, end: o.end, prot: o.prot, back: shifted(hi), cow: o.cow})
		}
		if o.start < lo {
			as.regions.Insert(cpu, clipLo, &region{start: clipLo, end: clipHi, prot: prot, back: shifted(clipLo), cow: o.cow})
			as.regions.Insert(cpu, o.start, &region{start: o.start, end: lo, prot: o.prot, back: o.back, cow: o.cow})
		} else {
			as.regions.Insert(cpu, o.start, &region{start: clipLo, end: clipHi, prot: prot, back: shifted(clipLo), cow: o.cow})
		}
	}
	if revoked {
		perm := vm.PermBits(prot)
		for _, o := range overlaps {
			if o.cow {
				// Never hand write rights back to a COW region through
				// the bulk PTE rewrite (safe for non-COW neighbors: their
				// writes re-trap and lazily re-fill).
				perm &^= pagetable.PermW
				break
			}
		}
		as.mmu.Protect(cpu, lo, hi, perm, hw.CoreSet{}, as.activeSet())
	}
	if hole || covered < hi {
		return vm.ErrSegv
	}
	return nil
}

// PageFault is lock-free for plain fills: it reads an atomic snapshot of
// the region tree, installs the translation, and re-validates against the
// current tree. If a concurrent munmap removed the region in between, the
// fault undoes its installation — a simplified version of the Bonsai
// system's RCU validation protocol. Copy-on-write breaks are not fills —
// they rewrite a live translation — so like the rights-upgrade repair path
// they serialize on the address-space lock; the Bonsai design only makes
// plain faults lock-free.
func (as *AddressSpace) PageFault(cpu *hw.CPU, vpn uint64, write bool) error {
	return as.pageFault(cpu, vpn, vm.KindOf(write), false)
}

// pageFault handles one fault; trapped means a TLB permission trap raised
// it and the caller already counted the ProtFault.
func (as *AddressSpace) pageFault(cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error {
	cpu.Stats().PageFaults++
	cpu.Tick(vm.FaultCost)
	as.noteActive(cpu)

	v := as.findRegion(cpu, vpn)
	if v == nil {
		return vm.ErrSegv
	}
	if !v.prot.Permits(k) {
		if !trapped {
			cpu.Stats().ProtFaults++
		}
		return vm.ErrProt
	}
	if v.cow && k == vm.KindWrite {
		return as.breakCOW(cpu, vpn, k, trapped)
	}
	perm := v.permBits()
	var frame *mem.Frame
	if v.back.File != nil {
		fr, _ := v.back.File.Page(cpu, v.back.Offset+(vpn-v.start))
		if fr == nil {
			return vm.ErrSegv // past EOF: the offset was truncated away
		}
		frame = fr
	} else {
		frame = as.alloc.Alloc(cpu)
	}
	if !as.mmu.PageTable().MapIfAbsent(cpu, vpn, frame.PFN, perm) {
		// Raced with another faulter on the same page; adopt theirs,
		// upgrading the PTE's rights if the region now grants more.
		cpu.Stats().FillFaults++
		cpu.Tick(vm.FillCost)
		as.alloc.DecRef(cpu, frame)
		if pte, ok := as.mmu.PageTable().Lookup(cpu, vpn); ok {
			if pte.Perm&perm != perm {
				// Rights upgrade wanted, but perm came from a region
				// snapshot: a lock-free rewrite could resurrect rights
				// a concurrent Mprotect revoked, or a PTE a concurrent
				// Munmap cleared and shot down — and no local undo can
				// repair a third core's TLB that walked the resurrected
				// entry in between. Upgrades only happen right after an
				// mprotect, so this rare path takes the address-space
				// lock like a syscall and rewrites against the current
				// truth; plain fills stay lock-free, which is all the
				// Bonsai design promises.
				cpu.Acquire(&as.lock)
				cur := as.findRegion(cpu, vpn)
				cur2, ok2 := as.mmu.PageTable().Peek(vpn)
				switch {
				case cur == nil:
					cpu.Release(&as.lock)
					return vm.ErrSegv
				case !cur.prot.Permits(k):
					cpu.Release(&as.lock)
					if !trapped {
						cpu.Stats().ProtFaults++
					}
					return vm.ErrProt
				case !ok2:
					// The mapping was replaced wholesale between our
					// snapshot and the lock: retry as a fresh fault.
					cpu.Release(&as.lock)
					return as.pageFault(cpu, vpn, k, trapped)
				}
				perm = cur.permBits()
				if cur2.Perm&perm != perm {
					as.mmu.PageTable().Map(cpu, vpn, cur2.PFN, perm)
					cur2.Perm = perm
				}
				cpu.Release(&as.lock)
				pte = cur2
			}
			as.mmu.TLB(cpu.ID()).Insert(vpn, vm.TLBEntry(pte))
		}
		return nil
	}
	// Re-validate: a munmap may have cleared this range — or an mprotect
	// changed its rights, or a fork COW'd it — between our snapshot read
	// and the PTE install, and our stale install would outlive the
	// syscall's shootdown. The repair path is rare (it requires losing
	// that race), so it serializes on the address-space lock and
	// broadcasts a flush for the page: any third core that walked the
	// transient PTE rechecks it (rights-aware MMU.Revalidate) or is
	// flushed outright.
	cur := as.findRegion(cpu, vpn)
	if cur == nil || cur.prot != v.prot || cur.cow != v.cow {
		cpu.Acquire(&as.lock)
		cur = as.findRegion(cpu, vpn)
		if cur == nil {
			// Whoever clears a PTE drops the reference it held. The Munmap
			// that removed the region may already have swapped our entry
			// out and dropped frame's reference, so release only what this
			// Unmap clears — which is then frame, or another stale
			// faulter's install that landed after Munmap's sweep.
			var cleared *mem.Frame
			as.mmu.PageTable().UnmapRangeFunc(cpu, vpn, vpn+1, func(_, pfn uint64) {
				cleared = as.alloc.ByPFN(pfn)
			})
			as.mmu.ShootdownTLBOnly(cpu, vpn, vpn+1, as.activeSet())
			if cleared != nil {
				as.alloc.DecRef(cpu, cleared)
			}
			cpu.Release(&as.lock)
			return vm.ErrSegv
		}
		if curPerm := cur.permBits(); curPerm != perm {
			as.mmu.PageTable().Map(cpu, vpn, frame.PFN, curPerm)
			as.mmu.ShootdownTLBOnly(cpu, vpn, vpn+1, as.activeSet())
			perm = curPerm
		}
		allowed := cur.prot.Permits(k)
		cpu.Release(&as.lock)
		if !allowed {
			if !trapped {
				cpu.Stats().ProtFaults++
			}
			// The page stays mapped and resident with its current
			// (narrower) rights; only this access is denied.
			return vm.ErrProt
		}
	}
	as.mmu.TLB(cpu.ID()).Insert(vpn, vm.TLBEntry(pagetable.PTE{PFN: frame.PFN, Perm: perm, Present: true}))
	return nil
}

// breakCOW resolves a write fault in a COW region under the address-space
// lock. With the lock held no munmap, mprotect, fork, or other break can
// interleave; only lock-free read fills race, which MapIfAbsent absorbs.
func (as *AddressSpace) breakCOW(cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error {
	cpu.Acquire(&as.lock)
	cur := as.findRegion(cpu, vpn)
	switch {
	case cur == nil:
		cpu.Release(&as.lock)
		return vm.ErrSegv
	case !cur.prot.Permits(k):
		cpu.Release(&as.lock)
		if !trapped {
			cpu.Stats().ProtFaults++
		}
		return vm.ErrProt
	case !cur.cow:
		// The region was replaced (e.g. remapped) since our snapshot;
		// retry as a plain fault.
		cpu.Release(&as.lock)
		return as.pageFault(cpu, vpn, k, trapped)
	}
	wperm := vm.PermBits(cur.prot)
	for {
		pte, ok := as.mmu.PageTable().Lookup(cpu, vpn)
		if !ok {
			// Never faulted in this space: no frame is shared, so fill
			// privately with full rights. A lock-free reader may race the
			// install; on failure, loop and resolve against its PTE.
			frame := as.alloc.Alloc(cpu)
			if as.mmu.PageTable().MapIfAbsent(cpu, vpn, frame.PFN, wperm) {
				cpu.Release(&as.lock)
				as.mmu.TLB(cpu.ID()).Insert(vpn, vm.TLBEntryFor(frame.PFN, cur.prot))
				return nil
			}
			as.alloc.DecRef(cpu, frame)
			continue
		}
		if pte.Perm&pagetable.PermW != 0 {
			// Already privatized by an earlier break.
			cpu.Release(&as.lock)
			as.mmu.TLB(cpu.ID()).Insert(vpn, vm.TLBEntry(pte))
			return nil
		}
		orig := as.alloc.ByPFN(pte.PFN)
		nf := vm.CopyCOWFrame(cpu, as.alloc, orig)
		as.mmu.PageTable().Map(cpu, vpn, nf.PFN, wperm)
		as.alloc.DecRef(cpu, orig) // the page table's ref moved to the copy
		// Stale read-only translations of the old frame may be cached
		// anywhere; the shared MMU can only broadcast.
		as.mmu.ShootdownTLBOnly(cpu, vpn, vpn+1, as.activeSet())
		cpu.Release(&as.lock)
		as.mmu.TLB(cpu.ID()).Insert(vpn, vm.TLBEntryFor(nf.PFN, cur.prot))
		return nil
	}
}

func (as *AddressSpace) findRegion(cpu *hw.CPU, vpn uint64) *region {
	_, v, ok := as.regions.Floor(cpu, vpn)
	if !ok || vpn >= v.end {
		return nil
	}
	return v
}

// Access implements vm.System.
func (as *AddressSpace) Access(cpu *hw.CPU, vpn uint64, write bool) error {
	return as.access(cpu, vpn, vm.KindOf(write))
}

// Fetch implements vm.System: an exec-checked access, sharing the same
// TLB/walk/fault pipeline as Access.
func (as *AddressSpace) Fetch(cpu *hw.CPU, vpn uint64) error {
	return as.access(cpu, vpn, vm.KindExec)
}

func (as *AddressSpace) access(cpu *hw.CPU, vpn uint64, k vm.Kind) error {
	as.noteActive(cpu)
	t := as.mmu.TLB(cpu.ID())
	if e, ok := t.Lookup(vpn); ok {
		if vm.TLBAllows(e, k) {
			cpu.Tick(vm.AccessCost)
			return nil
		}
		cpu.Stats().ProtFaults++
		return as.pageFault(cpu, vpn, k, true) // permission trap from the TLB
	}
	if pte, ok := as.mmu.Lookup(cpu, vpn); ok {
		if !vm.PTEAllows(pte, k) {
			cpu.Stats().ProtFaults++
			return as.pageFault(cpu, vpn, k, true) // permission trap from the walk
		}
		cpu.Tick(vm.WalkCost)
		t.Insert(vpn, vm.TLBEntry(pte))
		// Walk+insert is not atomic against a concurrent shootdown;
		// re-validate (see vm.MMU.Revalidate).
		if as.mmu.Revalidate(cpu, vpn, pte.PFN, pte.Perm) {
			return nil
		}
		t.FlushPage(vpn)
	}
	return as.pageFault(cpu, vpn, k, false)
}

// Fork implements vm.System: like mmap and munmap it serializes on the
// address-space lock (the Bonsai design only makes faults lock-free).
// Every region is republished RCU-style with cow set — never mutated in
// place, so concurrent lock-free faulters either see the pre-fork region
// (and their stale writable install is caught by their own revalidation
// against the post-fork tree) or the COW one. The PTE copy and broadcast
// write-protect shootdown mirror the Linux baseline: the shared table
// records no sharer sets, so every core using the parent is interrupted.
func (as *AddressSpace) Fork(cpu *hw.CPU) (vm.System, error) {
	cpu.Stats().Forks++
	cpu.Tick(vm.LinuxSyscallCost)
	as.noteActive(cpu)
	child := New(as.m, as.rc, as.alloc)
	cpu.Acquire(&as.lock)
	defer cpu.Release(&as.lock)

	var anon []vm.Span
	pageZero := as.m.Config().PageZero
	snap := as.regions.Snapshot()
	snap.Ascend(cpu, 0, func(key uint64, o *region) bool {
		// Each duplicated region struct is billed by its logical size, the
		// same rule that prices RadixVM's header-sized node clones.
		cpu.Tick(vm.MetaCopyCost(pageZero, vm.VMACopyBytes))
		cow := o.cow
		if o.back.File == nil {
			cow = true
			anon = append(anon, vm.Span{Lo: o.start, Hi: o.end})
			if !o.cow {
				// Republish the parent's region as COW (fresh struct,
				// never in-place: lock-free faulters hold snapshots).
				as.regions.Insert(cpu, key, &region{
					start: o.start, end: o.end, prot: o.prot, back: o.back, cow: true,
				})
			}
		}
		child.regions.Insert(cpu, key, &region{
			start: o.start, end: o.end, prot: o.prot, back: o.back, cow: cow,
		})
		return true
	})
	// The child's file regions map the same cache pages, so it joins each
	// file's mapper registry — without this, post-fork writebacks would
	// leave the child's translations stale (the fork file-sharing fix).
	child.anyFile = as.anyFile
	child.syncFileRegs(cpu)
	if revoked, lo, hi := vm.ForkCopyTranslations(cpu, as.alloc, as.mmu.PageTable(), child.mmu.PageTable(), anon); revoked {
		// One conservative broadcast covers every downgraded page.
		as.mmu.ShootdownTLBOnly(cpu, lo, hi, as.activeSet())
	}
	return child, nil
}

// RevokeFilePages implements vm.FileMapper the Bonsai way: like every
// non-fault operation it serializes on the address-space lock, clears the
// shared page table over each of f's regions intersecting [offLo, offHi),
// and broadcasts one TLB flush to every core using the space — the shared
// table, like Linux's, records no per-page sharer sets. Lock-free faults
// may race the clear; a refill that slips in behind it is ordered before
// the writeback, exactly the window the real Bonsai RCU protocol permits.
func (as *AddressSpace) RevokeFilePages(cpu *hw.CPU, f *vm.File, offLo, offHi uint64) (int, int) {
	cpu.Acquire(&as.lock)
	defer cpu.Release(&as.lock)
	var spans []vm.Span
	as.regions.Snapshot().Ascend(cpu, 0, func(_ uint64, o *region) bool {
		if o.back.File != f {
			return true
		}
		oLo, oHi := o.back.Offset, o.back.Offset+(o.end-o.start)
		cLo, cHi := max(oLo, offLo), min(oHi, offHi)
		if cLo >= cHi {
			return true
		}
		spans = append(spans, vm.Span{Lo: o.start + (cLo - oLo), Hi: o.start + (cHi - oLo)})
		return true
	})
	if len(spans) == 0 {
		return 0, 0
	}
	revoked := 0
	lo, hi := spans[0].Lo, spans[0].Hi
	var frames []*mem.Frame
	for _, s := range spans {
		lo, hi = min(lo, s.Lo), max(hi, s.Hi)
		as.mmu.PageTable().UnmapRangeFunc(cpu, s.Lo, s.Hi, func(_, pfn uint64) {
			revoked++
			if fr := as.alloc.ByPFN(pfn); fr != nil {
				frames = append(frames, fr)
			}
		})
	}
	// One conservative flush per mm, present PTEs or not — the region walk
	// cannot prove absence of cached translations.
	active := as.activeSet()
	as.mmu.ShootdownTLBOnly(cpu, lo, hi, active)
	for _, fr := range frames {
		as.alloc.DecRef(cpu, fr)
	}
	return revoked, active.Count()
}
