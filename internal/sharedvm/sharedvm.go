// Package sharedvm is the skeleton the two baselines the paper compares
// against have in common (§5: Linux 3.5 and the Bonsai VM): contiguous
// regions in a balanced tree, one shared hardware page table, conservative
// broadcast TLB shootdowns, and mmap/munmap/mprotect/fork serialized on an
// address-space lock. What differs between them — the index, its writer
// lock, how a published region is replaced, and the fault path — is a
// Policy, implemented by internal/linuxvm and internal/bonsaivm; nothing
// here asks which one it serves.
package sharedvm

import (
	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/pagetable"
	"radixvm/internal/vm"
)

// Region is one contiguous mapped region [Start, End), Linux's per-region
// metadata object (a VMA).
type Region struct {
	Start, End uint64
	Prot       vm.Prot
	Back       vm.Backing // Offset is the file page at Start
	// COW marks an anonymous region whose already-faulted frames are (or
	// were) shared with a forked address space: translations install
	// read-only and the first write to each page copies its frame. The
	// flag is region-granular — Linux's VMA carries exactly this — so it
	// persists after every page has been privatized; a stale flag only
	// costs a touched page one extra copy, never correctness.
	COW bool
}

// PermBits returns the rights a translation for r may carry: the region's
// protection, minus write while the region is copy-on-write (per-page
// write-back happens only through a resolved COW break).
func (r *Region) PermBits() pagetable.Perm {
	perm := vm.PermBits(r.Prot)
	if r.COW {
		perm &^= pagetable.PermW
	}
	return perm
}

// Page returns what backs vpn in r: the file and the file page — the
// region's offset shifted by the page's distance from Start — or nil for
// anonymous memory.
func (r *Region) Page(vpn uint64) (*vm.File, uint64) {
	if r.Back.File == nil {
		return nil, 0
	}
	return r.Back.File, r.Back.Offset + (vpn - r.Start)
}

// piece returns the part [lo, hi) of r, its file offset shifted with its
// start.
func (r *Region) piece(lo, hi uint64) Region {
	p := *r
	_, p.Back.Offset = r.Page(lo)
	p.Start, p.End = lo, hi
	return p
}

// Policy is everything that differs between the baselines: the region index
// (keyed by Region.Start), its lock, and the two things done under them.
type Policy interface {
	// Lock and Unlock serialize mmap, munmap, mprotect, fork and file
	// revocation — whether they also exclude faults is the policy's choice.
	Lock(cpu *hw.CPU)
	Unlock(cpu *hw.CPU)
	// Floor returns the region with the greatest Start <= vpn, or nil.
	Floor(cpu *hw.CPU, vpn uint64) *Region
	// Ascend visits regions in Start order from the first Start >= from
	// until fn returns false.
	Ascend(cpu *hw.CPU, from uint64, fn func(start uint64, r *Region) bool)
	// Insert adds r under start, or replaces the region already there.
	Insert(cpu *hw.CPU, start uint64, r *Region)
	Delete(cpu *hw.CPU, start uint64)
	Len() int
	// Rewrite publishes r, which has old's extent, in old's place, and
	// Replace publishes pieces — two or three regions tiling old's extent in
	// ascending order — by Insert and Delete on ix (the policy itself, or a
	// test's wrapper of it). The caller holds the lock and is done with
	// pieces, so Replace may keep pointers into it. r is a value so that a
	// policy that rewrites in place allocates nothing: a slice handed to an
	// interface escapes.
	Rewrite(cpu *hw.CPU, ix Policy, old *Region, r Region)
	Replace(cpu *hw.CPU, ix Policy, old *Region, pieces ...Region)
	// Fault resolves a page fault on s, Space.Fault having charged the trap;
	// trapped: a TLB permission trap raised it and counted the ProtFault.
	Fault(s *Space, cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error
}

// Space is a baseline address space: a Policy over one shared page table.
type Space struct {
	Alloc  *mem.Allocator
	MMU    *vm.SharedMMU
	name   string
	newPol func() Policy // a forked child's empty policy
	pol    Policy

	// mapped counts live regions per backing file, mirroring the kernel's
	// i_mmap membership: this space registers with a file while at least
	// one region maps it, so writebacks find exactly the current mappers —
	// including a forked child that never called Mmap itself. Guarded by
	// the policy's lock.
	mapped map[*vm.File]int

	// found is what overlaps gathered below foundHi, and collect the Ascend
	// callback that fills it — built once, because a func value handed to
	// the policy escapes, and a fresh one would cost every mmap and munmap
	// two allocations. Guarded by the policy's lock.
	found   []*Region
	foundHi uint64
	collect func(start uint64, r *Region) bool

	// frames is the list a teardown (Sweep, RevokeFilePages) gathers the
	// frames it clears into, one for a space and every space forked from it:
	// a teardown borrows it by taking it and leaving nil, so a second one
	// that runs meanwhile (preempted into on the explorer) builds its own,
	// and puts it back emptied, holding no frame.
	frames *[]*mem.Frame

	active vm.ActiveSet
}

// New creates an empty address space governed by a policy from newPol;
// name identifies the system in benchmark output.
func New(m *hw.Machine, alloc *mem.Allocator, name string, newPol func() Policy) *Space {
	return newSpace(m, alloc, name, newPol, new([]*mem.Frame))
}

// newSpace is New for a space whose fork family's frame list is frames.
func newSpace(m *hw.Machine, alloc *mem.Allocator, name string, newPol func() Policy, frames *[]*mem.Frame) *Space {
	s := &Space{Alloc: alloc, MMU: vm.NewSharedMMU(m), name: name, newPol: newPol, pol: newPol(), frames: frames}
	s.collect = func(start uint64, r *Region) bool {
		if start >= s.foundHi {
			return false
		}
		s.found = append(s.found, r)
		return true
	}
	return s
}

// Name implements vm.System.
func (s *Space) Name() string { return s.name }

// PageTableBytes implements vm.System.
func (s *Space) PageTableBytes() uint64 { return s.MMU.Bytes() }

// Regions returns the number of regions (Table 2 accounting).
func (s *Space) Regions() int { return s.pol.Len() }

// Find returns the region containing vpn. Whether the caller must hold the
// lock is the policy's business.
func (s *Space) Find(cpu *hw.CPU, vpn uint64) *Region {
	if r := s.pol.Floor(cpu, vpn); r != nil && vpn < r.End {
		return r
	}
	return nil
}

// count adjusts f's region count by delta, joining f's mapper registry on
// the 0→1 transition (i_mmap insertion) and leaving it with the last region.
// A split or trim passes its net change, so the space never drops out of
// the registry while a piece of the file stays mapped.
func (s *Space) count(f *vm.File, delta int) {
	if f == nil || delta == 0 {
		return
	}
	if s.mapped == nil {
		s.mapped = make(map[*vm.File]int)
	}
	was := s.mapped[f]
	if was+delta == 0 {
		delete(s.mapped, f)
		f.UnregisterMapper(s)
		return
	}
	s.mapped[f] = was + delta
	if was == 0 {
		f.RegisterMapper(s)
	}
}

func (s *Space) insert(cpu *hw.CPU, r *Region) {
	s.pol.Insert(cpu, r.Start, r)
	s.count(r.Back.File, 1)
}

func (s *Space) replace(cpu *hw.CPU, old *Region, pieces ...Region) {
	f := old.Back.File
	s.pol.Replace(cpu, s.pol, old, pieces...)
	s.count(f, len(pieces)-1)
}

// enter charges a syscall's overhead and takes the lock.
func (s *Space) enter(cpu *hw.CPU) {
	cpu.Tick(vm.LinuxSyscallCost)
	s.active.Note(cpu.ID())
	s.pol.Lock(cpu)
}

// Mmap implements vm.System: takes the lock, removes any overlapping
// regions (clearing page tables and broadcasting shootdowns), and inserts
// the new region.
func (s *Space) Mmap(cpu *hw.CPU, vpn, npages uint64, opts vm.MapOpts) error {
	if npages == 0 {
		return vm.ErrRange
	}
	cpu.Stats().Mmaps++
	s.enter(cpu)
	s.removeOverlaps(cpu, vpn, vpn+npages)
	back := vm.Backing{File: opts.File, Offset: opts.Offset}
	s.insert(cpu, &Region{Start: vpn, End: vpn + npages, Prot: opts.Prot, Back: back})
	s.pol.Unlock(cpu)
	return nil
}

// Munmap implements vm.System.
func (s *Space) Munmap(cpu *hw.CPU, vpn, npages uint64) error {
	if npages == 0 {
		return vm.ErrRange
	}
	cpu.Stats().Munmaps++
	s.enter(cpu)
	s.removeOverlaps(cpu, vpn, vpn+npages)
	s.pol.Unlock(cpu)
	return nil
}

// overlaps gathers every region intersecting [lo, hi), in ascending start
// order; the caller holds the lock, and the result is good until the next
// call.
func (s *Space) overlaps(cpu *hw.CPU, lo, hi uint64) []*Region {
	s.found, s.foundHi = s.found[:0], hi
	if r := s.pol.Floor(cpu, lo); r != nil && r.Start < lo && r.End > lo {
		s.found = append(s.found, r)
	}
	s.pol.Ascend(cpu, lo, s.collect)
	return s.found
}

// removeOverlaps trims or splits every region overlapping [lo, hi) and
// sweeps the range's translations. Caller holds the lock.
func (s *Space) removeOverlaps(cpu *hw.CPU, lo, hi uint64) {
	overlaps := s.overlaps(cpu, lo, hi)
	if len(overlaps) == 0 {
		return
	}
	for _, o := range overlaps {
		s.pol.Delete(cpu, o.Start)
		kept := 0
		if o.Start < lo { // keep the left piece
			left := o.piece(o.Start, lo)
			s.pol.Insert(cpu, left.Start, &left)
			kept++
		}
		if o.End > hi { // keep the right piece
			right := o.piece(hi, o.End)
			s.pol.Insert(cpu, right.Start, &right)
			kept++
		}
		s.count(o.Back.File, kept-1)
	}
	s.Sweep(cpu, lo, hi)
}

// clear empties the shared page table over [lo, hi), appending the frames
// that backed it to frames.
func (s *Space) clear(cpu *hw.CPU, lo, hi uint64, frames []*mem.Frame) []*mem.Frame {
	s.MMU.PageTable().UnmapRangeFunc(cpu, lo, hi, func(_, pfn uint64) {
		if f := s.Alloc.ByPFN(pfn); f != nil {
			frames = append(frames, f)
		}
	})
	return frames
}

// borrowFrames takes the fork family's frame list, empty, for a teardown to
// gather into and hand to flushAndDrop; nil if another teardown holds it.
func (s *Space) borrowFrames() []*mem.Frame {
	frames := *s.frames
	*s.frames = nil
	return frames
}

// flushAndDrop broadcasts TLB shootdowns for [lo, hi) to every core using
// the address space (the hardware gives no better information) and only
// then releases frames — whoever clears a PTE drops the reference it held,
// and no frame may be reused while a TLB still maps it — and puts frames
// back as the family's list, emptied. Returns the width.
func (s *Space) flushAndDrop(cpu *hw.CPU, lo, hi uint64, frames []*mem.Frame) int {
	width := s.Flush(cpu, lo, hi)
	for _, f := range frames {
		s.Alloc.DecRef(cpu, f)
	}
	clear(frames)
	*s.frames = frames[:0]
	return width
}

// Sweep removes every translation of [lo, hi): clear, broadcast, release.
// Caller holds the lock.
func (s *Space) Sweep(cpu *hw.CPU, lo, hi uint64) {
	s.flushAndDrop(cpu, lo, hi, s.clear(cpu, lo, hi, s.borrowFrames()))
}

// Flush broadcasts a TLB flush of [lo, hi) to every core using the space and
// returns how many that is.
func (s *Space) Flush(cpu *hw.CPU, lo, hi uint64) int {
	active := s.active.Get()
	s.MMU.ShootdownTLBOnly(cpu, lo, hi, active)
	return active.Count()
}

// Cache installs pte for vpn in the calling core's TLB.
func (s *Space) Cache(cpu *hw.CPU, vpn uint64, pte pagetable.PTE) {
	s.MMU.TLB(cpu.ID()).Insert(vpn, vm.TLBEntry(pte))
}

// span is one contiguous page range.
type span struct{ lo, hi uint64 }

// Fork implements vm.System the Linux way (dup_mmap): take the parent's
// lock — which under linux excludes every fault, under bonsai all but plain
// fills — copy the region tree, and for each anonymous region copy the
// parent's installed translations into the child's page table with write
// permission stripped on both sides, marking both regions COW. The parent's
// region is replaced, not assumed mutable: a lock-free faulter either sees
// the pre-fork region (and its stale writable install is caught by its own
// revalidation against the post-fork tree) or the COW one. File-backed
// regions copy metadata only; the child re-faults their pages from the page
// cache lazily, and joins each file's mapper registry here — without that,
// post-fork writebacks would leave the child's translations stale.
func (s *Space) Fork(cpu *hw.CPU) (vm.System, error) {
	cpu.Stats().Forks++
	child := newSpace(cpu.Machine(), s.Alloc, s.name, s.newPol, s.frames)
	s.enter(cpu)
	defer s.pol.Unlock(cpu)

	var anon []span
	pageZero := cpu.Machine().Config().PageZero
	s.pol.Ascend(cpu, 0, func(_ uint64, o *Region) bool {
		// Each duplicated region struct is billed by its logical size, the
		// same rule that prices RadixVM's header-sized node clones.
		cpu.TickAs(hw.CauseMetaCopy, vm.MetaCopyCost(pageZero, vm.VMACopyBytes))
		c := *o
		if o.Back.File == nil {
			c.COW = true
			anon = append(anon, span{o.Start, o.End})
			if !o.COW {
				s.pol.Rewrite(cpu, s.pol, o, c)
			}
		}
		child.insert(cpu, &c)
		return true
	})
	// The page-table half: for every present translation of an anonymous
	// region, take a reference for the child's page table, install the
	// translation there with write permission stripped, and downgrade the
	// parent's entry in place when it was writable. Each copied entry is
	// billed by its logical size, like the region structs above. A
	// Walker per table keeps the path to the leaf it last reached, so
	// consecutive entries of one leaf skip the descents they would repeat.
	parent, into := s.MMU.PageTable(), child.MMU.PageTable()
	pw, cw := s.MMU.Walker(cpu, parent), child.MMU.Walker(cpu, into)
	lo, hi := ^uint64(0), uint64(0)
	for _, sp := range anon {
		parent.ForEachRange(cpu, sp.lo, sp.hi, func(vpn uint64, pte pagetable.PTE) {
			f := s.Alloc.ByPFN(pte.PFN)
			if f == nil {
				return
			}
			cpu.TickAs(hw.CauseMetaCopy, vm.MetaCopyCost(pageZero, vm.PTECopyBytes))
			s.Alloc.IncRef(cpu, f) // the child page table's reference
			perm := pte.Perm &^ pagetable.PermW
			cw.Map(cpu, vpn, pte.PFN, perm)
			if pte.Perm&pagetable.PermW != 0 {
				pw.Map(cpu, vpn, pte.PFN, perm)
				lo, hi = min(lo, vpn), max(hi, vpn+1)
			}
		})
	}
	if lo < hi {
		// The hardware gives no record of which TLBs cache the old writable
		// rights, so one conservative broadcast over the downgrades'
		// bounding range interrupts every core using the parent — the
		// non-scalable flush RadixVM's per-page sharer sets avoid.
		s.Flush(cpu, lo, hi)
	}
	return child, nil
}

// CopyCOWFrame is the baselines' copy-on-write resolution: allocate a
// private frame and copy the contents. Unlike RadixVM's break it cannot
// take sole ownership — region-granular metadata cannot prove no other
// space still maps the frame — so it always copies (the behavior of
// pre-reuse-optimization kernels, and safely over-conservative). No
// reference moves here: the caller drops its reference to the shared
// frame only once its page table actually points at the copy (a loser of
// the PTE-swap race must instead discard the copy).
func (s *Space) CopyCOWFrame(cpu *hw.CPU, orig *mem.Frame) *mem.Frame {
	cpu.Stats().COWBreaks++
	nf := s.Alloc.Alloc(cpu) // the zeroing charge stands in for the copy
	nf.CopyFrom(orig)
	return nf
}

// Mprotect implements vm.System: take the lock (serializing against every
// other mmap/munmap/mprotect), replace the overlapping regions so the range
// is covered by regions carrying exactly the new protection — a boundary
// region splits into outside piece(s) with the old protection and an inside
// piece with the new one — rewrite the shared page table's permission bits,
// and — because the hardware cannot say which TLBs cached the old rights —
// broadcast a flush to every core using the address space whenever rights
// were revoked. Granted rights propagate lazily through protection faults.
func (s *Space) Mprotect(cpu *hw.CPU, vpn, npages uint64, prot vm.Prot) error {
	if npages == 0 {
		return vm.ErrRange
	}
	cpu.Stats().Mprotects++
	s.enter(cpu)
	defer s.pol.Unlock(cpu)
	lo, hi := vpn, vpn+npages

	covered, hole, revoked, cow := lo, false, false, false
	for _, o := range s.overlaps(cpu, lo, hi) {
		clipLo, clipHi := max(lo, o.Start), min(hi, o.End)
		if clipLo > covered {
			hole = true
		}
		covered = clipHi
		revoked = revoked || o.Prot&^prot != 0
		cow = cow || o.COW
		mid := o.piece(clipLo, clipHi)
		mid.Prot = prot
		if o.Start >= lo && o.End <= hi {
			s.pol.Rewrite(cpu, s.pol, o, mid)
			continue
		}
		pieces := make([]Region, 0, 3)
		if o.Start < lo {
			pieces = append(pieces, o.piece(o.Start, lo))
		}
		pieces = append(pieces, mid)
		if o.End > hi {
			pieces = append(pieces, o.piece(hi, o.End))
		}
		s.replace(cpu, o, pieces...)
	}
	if revoked {
		perm := vm.PermBits(prot)
		if cow {
			// Never hand write rights back to a COW region through the
			// bulk PTE rewrite; stripping W from the whole range is safe
			// (non-COW writes re-trap and lazily re-fill).
			perm &^= pagetable.PermW
		}
		s.MMU.Protect(cpu, lo, hi, perm, hw.CoreSet{}, s.active.Get())
	}
	if hole || covered < hi {
		return vm.ErrSegv
	}
	return nil
}

// RevokeFilePages implements vm.FileMapper the Linux way
// (unmap_mapping_range / invalidate_inode_pages2): take the lock, clear the
// shared page table over every region of f overlapping [offLo, offHi), and
// flush with a broadcast to every core using this mm — the hardware records
// no per-page sharer set, so one core's cached translation costs an IPI to
// all of them. The reported sharer width is that broadcast's span, which is
// what the filemap figure contrasts with RadixVM's exact per-page counts.
// Faults a policy leaves outside the lock may race the clear; a refill that
// slips in behind it is ordered before the writeback, exactly the window
// the real Bonsai RCU protocol permits.
func (s *Space) RevokeFilePages(cpu *hw.CPU, f *vm.File, offLo, offHi uint64) (int, int) {
	s.pol.Lock(cpu)
	defer s.pol.Unlock(cpu)
	if s.mapped[f] == 0 {
		return 0, 0 // raced the last munmap: nothing maps f anymore
	}
	var spans []span
	s.pol.Ascend(cpu, 0, func(_ uint64, o *Region) bool {
		if o.Back.File != f {
			return true
		}
		oLo, oHi := o.Back.Offset, o.Back.Offset+(o.End-o.Start)
		cLo, cHi := max(oLo, offLo), min(oHi, offHi)
		if cLo < cHi {
			spans = append(spans, span{o.Start + (cLo - oLo), o.Start + (cHi - oLo)})
		}
		return true
	})
	if len(spans) == 0 {
		return 0, 0
	}
	frames := s.borrowFrames()
	for _, sp := range spans {
		frames = s.clear(cpu, sp.lo, sp.hi, frames)
	}
	// One conservative flush per mm over the spans' bounds (they ascend),
	// present PTEs or not — the region walk cannot prove absence of cached
	// translations.
	return len(frames), s.flushAndDrop(cpu, spans[0].lo, spans[len(spans)-1].hi, frames)
}

// Fill is the install step of a fault on vpn in r: obtain the backing frame
// — the page-cache page at the region's offset for this vpn, or a fresh
// anonymous frame — and map it with perm unless a translation is already
// there. ok is false past EOF (the offset was truncated away); installed is
// false when another core mapped the page first, and the frame is dropped.
func (s *Space) Fill(cpu *hw.CPU, r *Region, vpn uint64, perm pagetable.Perm) (pte pagetable.PTE, installed, ok bool) {
	var frame *mem.Frame
	if f, off := r.Page(vpn); f != nil {
		if frame, _ = f.Page(cpu, off); frame == nil {
			return pte, false, false
		}
	} else {
		frame = s.Alloc.Alloc(cpu)
	}
	if s.MMU.Walker(cpu, s.MMU.PageTable()).MapIfAbsent(cpu, vpn, frame.PFN, perm) {
		return pagetable.PTE{PFN: frame.PFN, Perm: perm, Present: true}, true, true
	}
	cpu.Stats().FillFaults++
	cpu.Tick(vm.FillCost)
	s.Alloc.DecRef(cpu, frame)
	return pte, false, true
}

// Fault charges the trap and hands the fault to the policy.
func (s *Space) Fault(cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error {
	cpu.Stats().PageFaults++
	cpu.Tick(vm.FaultCost)
	s.active.Note(cpu.ID())
	return s.pol.Fault(s, cpu, vpn, k, trapped)
}

// Denied reports a fault on a mapping that forbids the access.
func Denied(cpu *hw.CPU, trapped bool) error {
	if !trapped {
		cpu.Stats().ProtFaults++
	}
	return vm.ErrProt
}

// Access implements vm.System.
func (s *Space) Access(cpu *hw.CPU, vpn uint64, write bool) error {
	s.active.Note(cpu.ID())
	return vm.Access(cpu, s.MMU, vpn, vm.KindOf(write), s.Fault)
}

// Fetch implements vm.System: an exec-checked access, sharing the same
// TLB/walk/fault pipeline as Access.
func (s *Space) Fetch(cpu *hw.CPU, vpn uint64) error {
	s.active.Note(cpu.ID())
	return vm.Access(cpu, s.MMU, vpn, vm.KindExec, s.Fault)
}
