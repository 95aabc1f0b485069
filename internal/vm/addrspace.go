package vm

import (
	"sync"
	"sync/atomic"

	"radixvm/internal/counter"
	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/pagetable"
	"radixvm/internal/radix"
	"radixvm/internal/refcache"
)

// Mapping is the per-page mapping metadata stored in the radix tree
// (§3.2): protection, backing object, the canonical pointer to the
// physical page once faulted, and the precise set of cores that may have
// the translation cached ("the TLB shootdown list in the mapping metadata").
//
// A Mapping is written so that it is initially identical for every page of
// an mmap — Start is the mapping's first VPN, so file offsets derive from
// (vpn - Start) rather than being stored per page — which is what lets
// large mappings fold into a handful of radix slots.
type Mapping struct {
	Prot  Prot
	Back  Backing
	Start uint64 // first VPN of the mmap that created this metadata

	// COW marks an anonymous page whose frame is shared with another
	// address space (set by Fork on both sides): installed translations
	// stay read-only regardless of Prot, and the first write fault
	// resolves it — copying the frame, or taking ownership when this
	// mapping is the last COW share standing.
	COW bool

	// Set only on per-page (leaf) copies, by pagefault:
	Frame    *mem.Frame
	TLBCores hw.CoreSet
	altCtr   counter.Counter
}

// permBits returns the hardware rights a translation for m may carry: the
// mapping's protection, minus write while the page is copy-on-write.
func (m *Mapping) permBits() pagetable.Perm {
	perm := PermBits(m.Prot)
	if m.COW {
		perm &^= pagetable.PermW
	}
	return perm
}

// AddressSpace is a RadixVM address space.
type AddressSpace struct {
	m     *hw.Machine
	rc    *refcache.Refcache
	alloc *mem.Allocator
	tree  *radix.Tree[Mapping]
	mmu   MMU

	// forkGen counts forks of this space. The fault path reads it on
	// entry and re-validates after installing a translation: a bump in
	// between means the fork's wholesale invalidation may already have
	// swept this core, so the just-installed translation — derived from
	// possibly pre-divergence metadata — is undone and the fault retried.
	forkGen atomic.Uint64

	active ActiveSet

	// revokeMu orders file-page revocations against Exit: a revoke holds
	// the read side while it walks the tree, and Exit marks the space
	// exited under the write side before releasing the tree, so a
	// writeback can never walk freed radix nodes.
	revokeMu sync.RWMutex
	exited   atomic.Bool
}

// New creates an address space on machine m. mmu selects the paper's
// design (NewPerCoreMMU) or the traditional one (NewSharedMMU, the Figure
// 9 ablation); nil defaults to per-core.
func New(m *hw.Machine, rc *refcache.Refcache, alloc *mem.Allocator, mmu MMU) *AddressSpace {
	if mmu == nil {
		mmu = NewPerCoreMMU(m)
	}
	as := &AddressSpace{
		m:     m,
		rc:    rc,
		alloc: alloc,
		// A Mapping needs no deep clone, so NewCopy lets folded-slot
		// expansion slab-allocate the 512 per-page copies and Mmap write
		// its metadata through recycled value carriers.
		tree: radix.NewCopy[Mapping](m, rc),
		mmu:  mmu,
	}
	as.wireTree()
	return as
}

// wireTree makes as the fork hooks of as.tree (radix.Hooks): OnDiverge
// COW-arms the copied mappings and OnRelease drops their frame references (the
// teardown half of unmapLocked). Done on every address space — Exit relies on
// the release hook whether or not the space ever forked, and Fork re-wires
// each child to itself.
func (as *AddressSpace) wireTree() { as.tree.SetHooks(as) }

// The generation fork is the only fork, and this setter of the strategy does
// nothing. It exists because bench/trace.go — which no PR but a benchmark one
// may edit — offers a wrapped system whole-space Exit only if the system has
// this method too (lazyExiter); without it fleet and filemap would silently
// tear children down by munmap sweep. The bench PR that makes lazyExiter
// probe vm.Exiter alone deletes it (ROADMAP, bench hand-off note).
func (as *AddressSpace) SetForkEager(bool) {}

// Name implements System.
func (as *AddressSpace) Name() string { return "radixvm" }

// MMU returns the address space's MMU (for stats and Figure 9 harnesses).
func (as *AddressSpace) MMU() MMU { return as.mmu }

// Tree exposes the radix tree's memory accounting (Table 2).
func (as *AddressSpace) Tree() *radix.Tree[Mapping] { return as.tree }

// PageTableBytes implements System.
func (as *AddressSpace) PageTableBytes() uint64 { return as.mmu.Bytes() }

func (as *AddressSpace) noteActive(cpu *hw.CPU) { as.active.Note(cpu.ID()) }

func (as *AddressSpace) activeSet() hw.CoreSet { return as.active.Get() }

func checkVMRange(vpn, npages uint64) error {
	if npages == 0 || vpn+npages > radix.MaxVPN || vpn+npages < vpn {
		return ErrRange
	}
	return nil
}

// Mmap implements System (§3.4): lock the range left-to-right, unmap any
// existing mappings inside it, write the new metadata (folded into
// interior slots where the range covers whole subtrees), and unlock. No
// physical pages are allocated — that is pagefault's job.
func (as *AddressSpace) Mmap(cpu *hw.CPU, vpn, npages uint64, opts MapOpts) error {
	if err := checkVMRange(vpn, npages); err != nil {
		return err
	}
	cpu.Stats().Mmaps++
	cpu.Tick(RadixSyscallCost)
	as.noteActive(cpu)

	r := as.tree.LockRange(cpu, vpn, vpn+npages)
	as.unmapLocked(cpu, r)
	// The tree's per-CPU template is rewritten in place and copied into the
	// radix slots by Entry.SetClone: no per-call allocation.
	tmpl := as.tree.Template(cpu)
	*tmpl = Mapping{
		Prot:  opts.Prot,
		Back:  Backing{File: opts.File, Offset: opts.Offset},
		Start: vpn,
	}
	for i := range r.Entries() {
		r.Entry(i).SetClone(tmpl)
	}
	r.Unlock()
	return nil
}

// Munmap implements System (§3.4): lock the range, gather physical page
// references and the cores that faulted pages in, clear the metadata, shoot
// down exactly those cores' page tables and TLBs, then drop the page
// references and release the locks. After Munmap returns no core can
// access the range.
func (as *AddressSpace) Munmap(cpu *hw.CPU, vpn, npages uint64) error {
	if err := checkVMRange(vpn, npages); err != nil {
		return err
	}
	cpu.Stats().Munmaps++
	cpu.Tick(RadixSyscallCost)
	as.noteActive(cpu)

	r := as.tree.LockRange(cpu, vpn, vpn+npages)
	as.unmapLocked(cpu, r)
	r.Unlock()
	return nil
}

// Mprotect implements System with §3.4 lock-range semantics: lock the
// range left-to-right, rewrite each entry's protection in place (folded
// interior entries update a whole subtree through one slot), and — only if
// rights were revoked on pages some core may have cached — downgrade the
// installed translations and flush exactly those cores' TLBs before
// unlocking. Like munmap, the shootdown set comes from the mapping
// metadata, so write-protecting a region only one core ever touched sends
// no IPIs at all. Granted rights are not pushed anywhere: stale read-only
// translations upgrade lazily through protection faults.
func (as *AddressSpace) Mprotect(cpu *hw.CPU, vpn, npages uint64, prot Prot) error {
	if err := checkVMRange(vpn, npages); err != nil {
		return err
	}
	cpu.Stats().Mprotects++
	cpu.Tick(RadixSyscallCost)
	as.noteActive(cpu)

	r := as.tree.LockRange(cpu, vpn, vpn+npages)
	var targets hw.CoreSet
	revoked := false
	hole := false
	cow := false
	for i := range r.Entries() {
		e := r.Entry(i)
		v := e.Value()
		if v == nil {
			hole = true // POSIX mprotect on an unmapped page: ENOMEM
			continue
		}
		old := v.Prot
		v.Prot = prot
		e.Set(v) // same pointer: updates in place, no allocation
		if v.COW {
			cow = true
		}
		if old&^prot != 0 && v.Frame != nil {
			// Rights revoked on a faulted page: every core in the
			// shootdown set may cache the old rights.
			revoked = true
			targets.Union(v.TLBCores)
		}
	}
	if revoked {
		perm := PermBits(prot)
		if cow {
			// The rewrite must not hand write permission back to a
			// copy-on-write page. Stripping W from the whole range is
			// safe for any non-COW neighbors: their next write traps and
			// lazily re-fills with the mapping's full rights.
			perm &^= pagetable.PermW
		}
		as.mmu.Protect(cpu, r.Lo, r.Hi, perm, targets, as.activeSet())
	}
	r.Unlock()
	if hole {
		return ErrSegv
	}
	return nil
}

// unmapLocked clears every mapping in the locked range: gather, shoot
// down, then release references — in that order, so the physical pages
// cannot be reused while any TLB still maps them. The gather lists are
// stack-backed for the common small munmap, so the unmap half of the
// local allocate/free pattern stays off the heap.
func (as *AddressSpace) unmapLocked(cpu *hw.CPU, r *radix.Range[Mapping]) {
	var framesBuf [16]*mem.Frame
	var ctrsBuf [4]counter.Counter
	frames := framesBuf[:0]
	ctrs := ctrsBuf[:0]
	var targets hw.CoreSet
	for i := range r.Entries() {
		e := r.Entry(i)
		v := e.Value()
		if v == nil {
			continue
		}
		if v.Frame != nil {
			frames = append(frames, v.Frame)
			if v.COW {
				v.Frame.DropCOWShare(cpu) // this COW mapping is going away
			}
			if v.altCtr != nil {
				ctrs = append(ctrs, v.altCtr)
			}
		}
		targets.Union(v.TLBCores)
		e.Set(nil)
	}
	if len(frames) == 0 && targets.Empty() {
		return // nothing was ever faulted: no shootdown needed at all
	}
	as.mmu.Shootdown(cpu, r.Lo, r.Hi, targets, as.activeSet())
	for _, f := range frames {
		as.alloc.DecRef(cpu, f)
	}
	for _, c := range ctrs {
		c.Dec(cpu)
	}
}

// PageFault implements the §3.4 fault path: lock the page's metadata,
// check the access against the mapping's protection, allocate (or look up,
// for file mappings) the physical page if this is the first fault, install
// the translation — carrying the mapping's current rights — in the local
// core's page table, and record this core in the page's shootdown set.
func (as *AddressSpace) PageFault(cpu *hw.CPU, vpn uint64, write bool) error {
	return as.fault(cpu, vpn, KindOf(write), false)
}

// fault handles one page fault. trapped reports that a TLB permission
// trap raised it (the caller already counted the ProtFault), so a denial
// here must not count the same trap twice.
func (as *AddressSpace) fault(cpu *hw.CPU, vpn uint64, k Kind, trapped bool) error {
	cpu.Stats().PageFaults++
	cpu.Tick(FaultCost)
	as.noteActive(cpu)
	for {
		err, retry := as.faultOnce(cpu, vpn, k, trapped)
		if !retry {
			return err
		}
	}
}

// faultOnce runs one optimistic fault attempt under the fork epoch read at
// entry. retry is true when a fork's epoch bump raced the attempt: the
// installed translation may have been derived from pre-divergence metadata
// and missed by the fork's wholesale invalidation, so it is undone (a
// shootdown of the page) and the fault re-runs under the new epoch — whose
// LockPage descent then diverges the metadata first.
func (as *AddressSpace) faultOnce(cpu *hw.CPU, vpn uint64, k Kind, trapped bool) (error, bool) {
	gen := as.forkGen.Load()
	r := as.tree.LockPage(cpu, vpn)
	defer r.Unlock()
	e := r.Entry(0)
	v := e.Value()
	if v == nil {
		return ErrSegv, false // unmapped, or munmap got the lock first (§3.4)
	}
	if !v.Prot.Permits(k) {
		if !trapped {
			cpu.Stats().ProtFaults++
		}
		return ErrProt, false // mapped, but the mapping forbids this access
	}
	switch {
	case v.Frame == nil:
		if v.Back.File != nil {
			fr, ctr := v.Back.File.pageFor(cpu, v.Back.Offset+(vpn-v.Start), holder{as, v.Start - v.Back.Offset})
			if fr == nil {
				return ErrSegv, false // past EOF: the offset was truncated away
			}
			if ctr != nil {
				ctr.Inc(cpu)
			}
			v.Frame, v.altCtr = fr, ctr
		} else {
			v.Frame = as.alloc.Alloc(cpu)
		}
	case v.COW && k == KindWrite:
		// The mapping permits the write but the frame is shared with a
		// forked space: resolve the copy-on-write under the page's
		// metadata lock (so breaks of one page serialize, as §3.4 locks
		// everything else about a page).
		as.breakCOW(cpu, vpn, v)
	default:
		cpu.Stats().FillFaults++
		cpu.Tick(FillCost)
	}
	as.mmu.Fill(cpu, vpn, v.Frame.PFN, v.permBits())
	v.TLBCores.Add(cpu.ID())
	e.Set(v)
	if as.forkGen.Load() != gen {
		// A fork's invalidation raced this fault; the translation
		// just installed may be stale. Undo it and retry: on per-core
		// tables only this core holds it, but on the shared table any
		// active core may have walked it since the fill.
		var self hw.CoreSet
		self.Add(cpu.ID())
		as.mmu.Shootdown(cpu, vpn, vpn+1, self, as.activeSet())
		return nil, true
	}
	return nil, false
}

// Access implements System: a user-level memory access through this core's
// TLB and page table (the package-level Access), trapping into fault.
func (as *AddressSpace) Access(cpu *hw.CPU, vpn uint64, write bool) error {
	return as.access(cpu, vpn, KindOf(write))
}

// Fetch implements System: an instruction fetch at vpn — like Access, but
// the permission checked is ProtExec.
func (as *AddressSpace) Fetch(cpu *hw.CPU, vpn uint64) error {
	return as.access(cpu, vpn, KindExec)
}

func (as *AddressSpace) access(cpu *hw.CPU, vpn uint64, k Kind) error {
	as.noteActive(cpu)
	return Access(cpu, as.mmu, vpn, k, as.fault)
}

// Lookup returns the mapping metadata covering vpn (diagnostics/tests).
func (as *AddressSpace) Lookup(cpu *hw.CPU, vpn uint64) *Mapping {
	return as.tree.Lookup(cpu, vpn)
}
