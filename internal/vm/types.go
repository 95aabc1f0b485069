// Package vm implements RadixVM's address space (§3.3–3.4): mmap, munmap,
// and pagefault over the radix tree, with per-page mapping metadata,
// precise range locking, per-core page tables, and targeted TLB shootdown.
// It also defines the System interface and shared types (files, the page
// cache, protection bits) used by the Linux-like and Bonsai-like baselines.
package vm

import (
	"errors"
	"slices"

	"radixvm/internal/counter"
	"radixvm/internal/hw"
	"radixvm/internal/mem"
)

// Errors returned by VM operations.
var (
	// ErrSegv reports an access to an unmapped page (the fault handler
	// would deliver SIGSEGV).
	ErrSegv = errors.New("vm: segmentation violation")
	// ErrProt reports an access a mapping exists for but forbids — a
	// write to a read-only page, an instruction fetch from a no-exec
	// page (the fault handler would deliver SIGSEGV with SEGV_ACCERR).
	ErrProt = errors.New("vm: protection violation")
	// ErrRange reports an mmap/munmap outside the addressable region.
	ErrRange = errors.New("vm: address range out of bounds")
)

// Prot is a page protection mask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// Kind distinguishes the three hardware access flavors a fault must check
// against the mapping's protection. It is shared by all three VM systems,
// so exec-checked fetches behave identically everywhere.
type Kind uint8

// Access kinds.
const (
	KindRead Kind = iota
	KindWrite
	KindExec
)

// KindOf maps the load/store flag of a plain data access to its Kind.
func KindOf(write bool) Kind {
	if write {
		return KindWrite
	}
	return KindRead
}

// Permits reports whether a mapping with protection p permits the access:
// whether the PTE it installs carries the right k needs. The rules are
// x86-shaped: a store needs ProtWrite, an instruction fetch needs ProtExec,
// and a load succeeds under any non-empty protection (writable and
// executable pages are readable; only PROT_NONE blocks reads).
func (p Prot) Permits(k Kind) bool { return PermBits(p)&right(k) != 0 }

// MapOpts describes an mmap request.
type MapOpts struct {
	Prot Prot
	// File, when non-nil, maps the file's pages starting at Offset
	// (pages, not bytes); otherwise the mapping is anonymous.
	File   *File
	Offset uint64
}

// System is the interface all three VM systems implement; the workloads
// and the benchmark harness are written against it.
//
// Addresses are in pages (VPNs), as everywhere in this repository.
type System interface {
	// Name identifies the system in benchmark output (radixvm, linux,
	// bonsai).
	Name() string
	// Mmap maps [vpn, vpn+npages), replacing any existing mappings.
	Mmap(cpu *hw.CPU, vpn, npages uint64, opts MapOpts) error
	// Munmap removes [vpn, vpn+npages): after it returns, no core can
	// access any page of the range.
	Munmap(cpu *hw.CPU, vpn, npages uint64) error
	// Mprotect changes [vpn, vpn+npages)'s protection. Rights that are
	// revoked take effect globally before the call returns (installed
	// translations are downgraded and stale TLB entries flushed); rights
	// that are granted may be realized lazily, by protection faults that
	// re-fill translations on next use. ErrSegv if any page of the range
	// is unmapped (the new protection is still applied to the mapped
	// pages, as POSIX permits for partial failure).
	Mprotect(cpu *hw.CPU, vpn, npages uint64, prot Prot) error
	// Access models a user-level load/store at vpn: TLB hit, hardware
	// page walk, or page fault as appropriate. ErrSegv if unmapped,
	// ErrProt if the mapping forbids the access.
	Access(cpu *hw.CPU, vpn uint64, write bool) error
	// Fetch models an instruction fetch at vpn: like Access, but the
	// permission checked is ProtExec (a JIT executing freshly mapped
	// code, a loader faulting in text pages).
	Fetch(cpu *hw.CPU, vpn uint64) error
	// Fork creates a copy-on-write child of the address space: the child
	// snapshots the parent's mapping metadata, shares every already
	// faulted anonymous frame read-only with the parent (the first write
	// on either side copies the frame), and shares file-backed frames
	// outright. No stale writable translation for a shared frame survives
	// Fork's return — the baselines downgrade the parent's installed
	// translations and flush stale TLB entries, radixvm invalidates the
	// parent's translations wholesale — so neither side can write a shared
	// frame behind the other's back.
	Fork(cpu *hw.CPU) (System, error)
	// PageTableBytes reports current hardware page table memory.
	PageTableBytes() uint64
}

// Exiter is the optional whole-address-space teardown: it retires a space
// without an O(address space) unmap sweep — RadixVM's exit is O(the child's
// own divergences), where Munmap would path-copy every shared node it
// clears — so workloads prefer it over per-region Munmaps when present.
// The space must not be used after Exit.
type Exiter interface {
	Exit(cpu *hw.CPU)
}

// Per-operation software overheads in cycles, chosen so the shapes and the
// paper's sequential-performance relation hold (RadixVM within ~8% of
// Linux at one core, §5.3).
const (
	// LinuxSyscallCost is mmap/munmap entry overhead in the baselines.
	LinuxSyscallCost = 1000
	// RadixSyscallCost is slightly higher: the paper's prototype is "not
	// as optimized as Linux" sequentially.
	RadixSyscallCost = 1080
	// FaultCost is the trap + handler entry/exit overhead.
	FaultCost = 900
	// FillCost is the extra work of a fault that only fills a PTE
	// (paper: "these 'fill' faults take only 1,200 cycles" at 80 cores).
	FillCost = 300
	// AccessCost is a plain user-level memory access that hits the TLB.
	AccessCost = 4
	// WalkCost approximates a hardware page walk on a TLB miss that
	// finds a present PTE.
	WalkCost = 40
)

// Fork's metadata copies are billed by their *logical* size at the
// page-copy rate (PageZero cycles per MetaPageBytes), on every system:
// RadixVM bills each cloned radix node as a compact header plus its
// materialized groups (radix.ForkNodeCost), and the baselines bill each
// duplicated VMA/region struct and each copied PTE below. Only genuinely
// shared frames — the COW copies on first write — pay the full page rate,
// through Allocator.Alloc as before.
const (
	// MetaPageBytes is the page-copy rate's denominator: PageZero is the
	// cost of touching one 4 KB page.
	MetaPageBytes = 4096
	// VMACopyBytes is the logical size of one duplicated region struct in
	// a baseline fork's dup_mmap pass (~sizeof(struct vm_area_struct),
	// matching linuxvm.VMABytes' Table 2 accounting).
	VMACopyBytes = 200
	// PTECopyBytes is the logical size of one copied page table entry.
	PTECopyBytes = 8
)

// MetaCopyCost converts a logical metadata size into virtual cycles at the
// page-copy rate.
func MetaCopyCost(pageZero, bytes uint64) uint64 {
	return pageZero * bytes / MetaPageBytes
}

// FileMapper is how a writeback or truncate of a file calls back into a
// baseline address space to invalidate its cached translations for the
// affected pages. The baselines register one with every file they map (the mm
// registry, linux's i_mmap walk) and can only do the faithful
// invalidate_inode_pages-style broadcast over every core using the address
// space, one per mapping space. RadixVM is not a FileMapper: it is found
// through the holder sets of the pages revoked (filePage), and its visits
// share one interrupt round (revokeBatch).
//
// RevokeFilePages invalidates every cached translation this space holds for
// f's pages in [offLo, offHi) (file page offsets), dropping the mappings'
// frame references so a truncated page can die. It returns the number of
// page translations revoked and the broadcast's width.
type FileMapper interface {
	RevokeFilePages(cpu *hw.CPU, f *File, offLo, offHi uint64) (revoked, maxSharers int)
}

// File is a mappable object backed by the simulated page cache
// (mem.PageCache): all mappings of the same file offset share one physical
// frame, which is what makes the Figure 8 workload hammer a single
// reference count. Writeback and Truncate find the translations to invalidate
// through the mm registry (the baselines: every space that maps the file) and
// through the per-page holder sets (RadixVM: the spaces that faulted the page).
type File struct {
	pc *mem.PageCache
	id uint64

	// mu is a lock bit (CPU.LockBit) over the sections that touch lines
	// while they read or change length and the holder sets: a fault's
	// registration (pageFor, dropHolder) and a revocation's take (Writeback,
	// Truncate). It is host bookkeeping, charged nothing; the rest of the
	// file's state changes between preemption points and needs no lock.
	mu     uint64
	length uint64 // pages; accesses at or past it fault (truncated tail)

	// mappers is the file's mm registry, in registration order (which the
	// deterministic schedule makes a pure function of virtual time, and
	// which revocations follow, so it feeds the virtual clock). Only the
	// baselines register, one space per live process at most.
	mappers []FileMapper

	stats FileStats
	spare *revokeBatch // the last revocation's batch, for the next one

	// altNew, when set, attaches a baseline reference counter (shared or
	// SNZI) to each page for the Figure 8 comparison; the frame's native
	// Refcache count still manages its lifetime.
	altNew func() counter.Counter

	// pages holds the per-page records in chunks keyed by offset /
	// filePagesPerChunk: the records' slabs and, keys sorted, a window's index.
	pages map[uint64]*[filePagesPerChunk]filePage
}

// filePage is what a File keeps per page offset. holders are the placements
// through which RadixVM spaces took a frame of the page (pageFor) and have not
// been revoked since, in registration order. Revocation rests on one
// invariant: if a live space's private mapping holds a frame of the page, the
// mapping's placement is in holders. A superset is legal and costs one wasted
// visit: a munmap leaves its entry, and if the space then exits, the exited
// fence in revokeFile skips it. Every change of the set of holder *spaces*
// (pageFor, dropHolder) is a write of line, and a revocation's take swaps
// each record of its window empty with one write, held or not (the xchg a
// kernel would issue); a second placement of a space already in the set is
// uncharged bookkeeping, like a membership hit on the fault path, which is
// part of pageFor's lookup, uncharged as a whole (the file's lock, the cache
// map, f.length: ROADMAP 3e).
type filePage struct {
	line    hw.Line
	holders []holder
	altCtr  counter.Counter
}

// holder is one placement of a file page in a RadixVM space: the space, and
// vpn − offset of the mapping it faulted through (Mapping.Start −
// Backing.Offset, mod 2⁶⁴), which names the VPN a revocation must clear.
type holder struct {
	as    *AddressSpace
	delta uint64
}

// holds reports whether as is among hs.
func holds(hs []holder, as *AddressSpace) bool {
	return slices.ContainsFunc(hs, func(h holder) bool { return h.as == as })
}

const filePagesPerChunk = 64

// page returns off's record — nil if it has none and create is unset.
func (f *File) page(off uint64, create bool) *filePage {
	chunk := f.pages[off/filePagesPerChunk]
	if chunk == nil {
		if !create {
			return nil
		}
		chunk = new([filePagesPerChunk]filePage)
		f.pages[off/filePagesPerChunk] = chunk
	}
	return &chunk[off%filePagesPerChunk]
}

// NewFile creates a file in a fresh private page cache over alloc.
func NewFile(alloc *mem.Allocator) *File {
	pc := mem.NewPageCache(alloc)
	return &File{
		pc:     pc,
		id:     pc.NewFileID(),
		length: ^uint64(0), // unbounded until the first Truncate
		pages:  map[uint64]*[filePagesPerChunk]filePage{},
	}
}

// NewFileWithCounter creates a file whose per-page reference counts are
// additionally tracked by baseline counters from newCtr (Figure 8).
func NewFileWithCounter(alloc *mem.Allocator, newCtr func() counter.Counter) *File {
	f := NewFile(alloc)
	f.altNew = newCtr
	return f
}

// Cache returns the page cache backing the file.
func (f *File) Cache() *mem.PageCache { return f.pc }

// Page returns the frame backing the file page at off — filling it from
// the allocator on first use, sharing the cached frame afterwards — plus
// the page's baseline counter if configured. The caller's reference is
// taken here, under the file's lock, so a Truncate can never see the frame
// between the cache handing it out and the mapping holding it.
// Returns nil for an offset at or past the file's length (truncated away):
// the fault becomes ErrSegv, as an access beyond EOF of a mapping would.
func (f *File) Page(cpu *hw.CPU, off uint64) (*mem.Frame, counter.Counter) {
	return f.pageFor(cpu, off, holder{})
}

// pageFor is Page for a RadixVM fault: h joins the page's holder set under
// the hold of f.mu that checks f.length, so a Truncate ordered after the fault
// finds it there. The baselines (Page) are found through the registry.
func (f *File) pageFor(cpu *hw.CPU, off uint64, h holder) (*mem.Frame, counter.Counter) {
	f.lock(cpu)
	defer f.unlock()
	if off >= f.length {
		return nil, nil
	}
	fr, filled := f.pc.Page(cpu, mem.PageKey{File: f.id, Off: off})
	f.pc.Allocator().IncRef(cpu, fr)
	if h.as == nil && f.altNew == nil {
		return fr, nil
	}
	p := f.page(off, true)
	if filled && f.altNew != nil {
		p.altCtr = f.altNew()
	}
	if h.as != nil && !slices.Contains(p.holders, h) {
		if !holds(p.holders, h.as) {
			cpu.Write(&p.line)
		}
		p.holders = append(p.holders, h)
	}
	return fr, p.altCtr
}

// dropHolder removes an exiting space, every placement of it, from off's
// holder set.
func (f *File) dropHolder(cpu *hw.CPU, off uint64, as *AddressSpace) {
	f.lock(cpu)
	defer f.unlock()
	p := f.page(off, false)
	if p != nil && holds(p.holders, as) {
		p.holders = slices.DeleteFunc(p.holders, func(h holder) bool { return h.as == as })
		cpu.Write(&p.line)
	}
}

// holderVisit is one placement a revocation walks into, over the hull of the
// offsets held through it: its range lock covers the pages it faulted, not
// the window.
type holderVisit struct {
	holder
	lo, hi uint64
}

// takeHolders empties the holder sets of the pages in [lo, hi) into a batch's
// visits — the file's spare batch if it has one —, one per distinct placement,
// in ascending offset and then registration order (the revocation follows it,
// so it feeds the virtual clock). A fault that registers after the take waits
// for the next revocation; one that registered before but has not stored its
// frame yet holds its page lock, which the visit's LockRange waits for. The
// caller holds f's lock.
func (f *File) takeHolders(cpu *hw.CPU, lo, hi uint64) *revokeBatch {
	b := f.spare
	if f.spare = nil; b == nil {
		b = new(revokeBatch)
	}
	visits := b.visits
	var keyBuf [16]uint64
	keys := keyBuf[:0]
	first, last := lo/filePagesPerChunk, (hi-1)/filePagesPerChunk
	for k := range f.pages {
		if first <= k && k <= last {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		chunk := f.pages[k]
		for i := range chunk {
			p, off := &chunk[i], k*filePagesPerChunk+uint64(i)
			if off < lo || off >= hi {
				continue
			}
			cpu.Write(&p.line) // swap the record empty: one xchg
			if len(p.holders) == 0 {
				continue
			}
			for _, h := range p.holders {
				at := slices.IndexFunc(visits, func(v holderVisit) bool { return v.holder == h })
				if at < 0 {
					visits = append(visits, holderVisit{holder: h, lo: off, hi: off + 1})
				} else {
					visits[at].hi = off + 1 // offsets ascend
				}
			}
			clear(p.holders)
			p.holders = p.holders[:0]
		}
	}
	b.visits = visits
	return b
}

// RegisterMapper records as as mapping the file (idempotent). Mmap and
// Fork call it for every space that can hold translations of the file's
// pages — including forked children that never called Mmap themselves —
// so writeback shootdowns reach every sharer.
func (f *File) RegisterMapper(m FileMapper) {
	if !slices.Contains(f.mappers, m) {
		f.mappers = append(f.mappers, m)
	}
}

// UnregisterMapper removes m from the file's mm registry (the space
// unmapped its last mapping of the file, or exited).
func (f *File) UnregisterMapper(m FileMapper) {
	if i := slices.Index(f.mappers, m); i >= 0 {
		f.mappers = slices.Delete(f.mappers, i, i+1)
	}
}

// Mappers returns the number of registered mapping address spaces.
func (f *File) Mappers() int {
	return len(f.mappers)
}

// Len returns the file's length in pages (^uint64(0) until truncated).
func (f *File) Len() uint64 { return f.length }

// Extend grows the file back to n pages (a write past EOF): no
// invalidation is needed to expose new pages, they simply fault in.
func (f *File) Extend(n uint64) {
	f.length = max(f.length, n)
}

// lock takes the file's lock bit for cpu; unlock drops it.
func (f *File) lock(cpu *hw.CPU) { cpu.LockBit(&f.mu, 1) }
func (f *File) unlock()          { f.mu = 0 }

// Writeback flushes the file's pages in [off, off+n) to backing store,
// revoking every mapping's cached translations for them so later accesses
// refault through the page cache — the invalidate half of a real
// writeback. The pages stay cached (clean), so refaults share the same
// frames. Each space invalidates at its own precision (revoke).
func (f *File) Writeback(cpu *hw.CPU, off, n uint64) {
	cpu.Tick(LinuxSyscallCost)
	f.lock(cpu)
	f.stats.Writebacks++
	b := f.takeHolders(cpu, off, off+n)
	f.unlock()
	f.revoke(cpu, b, off, off+n)
}

// Truncate shrinks the file to newLen pages: the tail pages leave the
// cache (their base references drop; remaining mapping references keep
// each frame alive until its last sharer unmaps), every mapping's
// translations for them are revoked, and later faults past the new EOF
// return ErrSegv.
func (f *File) Truncate(cpu *hw.CPU, newLen uint64) {
	cpu.Tick(LinuxSyscallCost)
	f.lock(cpu)
	f.stats.Truncates++
	f.length = min(f.length, newLen)
	b := f.takeHolders(cpu, newLen, ^uint64(0))
	f.unlock()
	dropped := f.pc.DropRange(f.id, newLen, ^uint64(0))
	f.revoke(cpu, b, newLen, ^uint64(0))
	alloc := f.pc.Allocator()
	for _, fr := range dropped {
		alloc.DecRef(cpu, fr) // the cache's base reference
	}
}

// revoke invalidates the translations of f's pages in [lo, hi): through the
// RadixVM placements that held some (b's visits), each over its hull, with one
// interrupt round to the union of the pages' sharers once every visit has
// cleared (revokeBatch.flush); then in every registered mapper over the window
// — the baselines, which broadcast over every core using each mapping space.
func (f *File) revoke(cpu *hw.CPU, b *revokeBatch, lo, hi uint64) {
	for _, v := range b.visits {
		f.noteRevoke(v.as.revokeFile(cpu, f, v.delta, v.lo+v.delta, v.hi+v.delta, b))
	}
	b.flush(cpu, f.pc.Allocator())
	f.spare = b
	// A snapshot: a mapper's revocation may unregister it.
	for _, m := range slices.Clone(f.mappers) {
		f.noteRevoke(m.RevokeFilePages(cpu, f, lo, hi))
	}
}

func (f *File) noteRevoke(revoked, sharers int) {
	f.stats.Revoked += uint64(revoked)
	f.stats.Visits++
	f.stats.SharerHigh = max(f.stats.SharerHigh, sharers)
}

// FileStats is what a file's writebacks and truncates did.
type FileStats struct {
	Writebacks uint64
	Truncates  uint64
	Revoked    uint64 // page translations invalidated across all spaces visited
	Visits     uint64 // visits revocations made, empty-handed or not
	SharerHigh int    // widest per-page sharer set a revocation saw
}

// Stats returns the file's revocation statistics.
func (f *File) Stats() FileStats { return f.stats }

// Backing identifies what is behind a mapping.
type Backing struct {
	File   *File  // nil for anonymous memory
	Offset uint64 // file page offset of the mapping's first page
}

// ActiveSet tracks which cores have ever used an address space — the
// equivalent of Linux's mm_cpumask. Conservative broadcast shootdowns must
// cover every core in it, including cores whose accesses were satisfied
// purely by hardware page walks (they still populated their TLBs).
type ActiveSet struct{ set hw.CoreSet }

// Note records core id as active.
func (a *ActiveSet) Note(id int) { a.set.Add(id) }

// Get returns a copy of the active core set.
func (a *ActiveSet) Get() hw.CoreSet { return a.set }
