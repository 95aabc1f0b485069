// Package linuxvm is the Linux-3.5-like baseline VM system the paper
// compares against: contiguous regions ("VMAs") in a red-black tree, one
// address-space read/write lock (mmap_sem) protecting it, a single shared
// hardware page table, and conservative broadcast TLB shootdowns.
//
// mmap and munmap take the lock in write mode, serializing them; pagefault
// takes it in read mode, which still writes the lock word's cache line —
// the reason "Metis on Linux scales poorly with both small and large
// allocation units" (§5.2).
//
// This package is the policy — index, lock, fault path — over the skeleton
// in internal/sharedvm.
package linuxvm

import (
	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/pagetable"
	"radixvm/internal/rbtree"
	"radixvm/internal/refcache"
	"radixvm/internal/sharedvm"
	"radixvm/internal/vm"
)

// VMABytes approximates sizeof(struct vm_area_struct) for Table 2's
// "VMA tree" column (Linux 3.5: ~200 bytes including rb-tree linkage).
const VMABytes = 200

// AddressSpace is a Linux-like address space.
type AddressSpace = sharedvm.Space

// New creates an empty Linux-like address space. Frames are counted through
// alloc; the baselines keep no Refcache objects of their own.
func New(m *hw.Machine, _ *refcache.Refcache, alloc *mem.Allocator) *AddressSpace {
	return sharedvm.New(m, alloc, "linux", newPolicy)
}

// policy is the Linux side of sharedvm.Policy: VMAs in a red-black tree
// under mmap_sem.
type policy struct {
	lock hw.RWLock // mmap_sem
	vmas *rbtree.Tree[*sharedvm.Region]
}

func newPolicy() sharedvm.Policy { return &policy{vmas: rbtree.New[*sharedvm.Region]()} }

func (p *policy) Lock(cpu *hw.CPU)   { cpu.WLock(&p.lock) }
func (p *policy) Unlock(cpu *hw.CPU) { cpu.WUnlock(&p.lock) }
func (p *policy) Len() int           { return p.vmas.Len() }

func (p *policy) Floor(cpu *hw.CPU, vpn uint64) *sharedvm.Region {
	if n := p.vmas.Floor(cpu, vpn); n != nil {
		return n.Val
	}
	return nil
}

func (p *policy) Ascend(cpu *hw.CPU, from uint64, fn func(uint64, *sharedvm.Region) bool) {
	p.vmas.Ascend(cpu, from, fn)
}

func (p *policy) Insert(cpu *hw.CPU, start uint64, r *sharedvm.Region) {
	p.vmas.Insert(cpu, start, r)
}

func (p *policy) Delete(cpu *hw.CPU, start uint64) { p.vmas.Delete(cpu, start) }

// Rewrite rewrites the region in place: the write lock excludes every reader.
func (p *policy) Rewrite(_ *hw.CPU, _ sharedvm.Policy, old *sharedvm.Region, r sharedvm.Region) {
	*old = r
}

// Replace splits a boundary VMA by deleting it and inserting its pieces.
func (p *policy) Replace(cpu *hw.CPU, ix sharedvm.Policy, old *sharedvm.Region, pieces ...sharedvm.Region) {
	ix.Delete(cpu, old.Start)
	for i := range pieces {
		ix.Insert(cpu, pieces[i].Start, &pieces[i])
	}
}

// Fault takes the address space lock in read mode — cheap in real-time
// terms, but the reader-count update transfers the lock's cache line, so
// concurrent faults across cores serialize at that line (§5.2). The VMA's
// protection gates the access; a present PTE with narrower rights than the
// VMA (an mprotect upgrade not yet realized) is rewritten in place, and a
// write into a COW region resolves the copy-on-write first.
func (p *policy) Fault(s *sharedvm.Space, cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error {
	cpu.RLock(&p.lock)
	defer cpu.RUnlock(&p.lock)

	v := s.Find(cpu, vpn)
	if v == nil {
		return vm.ErrSegv
	}
	if !v.Prot.Permits(k) {
		return sharedvm.Denied(cpu, trapped)
	}
	if v.COW && k == vm.KindWrite {
		if breakCOW(s, cpu, vpn, v) {
			return nil
		}
		// No translation yet: the page was never faulted in this space, so
		// no frame is shared — fall through to a plain private fill, which
		// may carry full rights.
	}
	perm := v.PermBits()
	if k == vm.KindWrite {
		perm |= pagetable.PermW // a resolved COW (or non-COW) write install
	}
	pte, installed, ok := s.Fill(cpu, v, vpn, perm)
	if !ok {
		return vm.ErrSegv
	}
	if installed {
		s.Cache(cpu, vpn, pte)
		return nil
	}
	// Another core mapped the page first: adopt its translation, upgrading
	// the PTE's rights if the VMA now grants more. COW regions never
	// upgrade to writable here — that is the break path's job.
	if v.COW && k == vm.KindWrite {
		// We lost the install race, so the page now has a (shared,
		// read-only) translation after all: resolve the COW against it.
		if breakCOW(s, cpu, vpn, v) {
			return nil
		}
	}
	perm = v.PermBits()
	w := s.MMU.Walker(cpu, s.MMU.PageTable())
	if pte, ok := w.Lookup(cpu, vpn); ok {
		if pte.Perm&perm != perm {
			w.Map(cpu, vpn, pte.PFN, perm)
			pte.Perm = perm
		}
		s.Cache(cpu, vpn, pte)
	}
	return nil
}

// breakCOW resolves a write fault in a COW region when the page has an
// installed (necessarily read-only) translation: copy the frame, swap the
// PTE to the private writable copy, and broadcast a flush — the shared page
// table records no sharer set, so like every Linux shootdown it must
// interrupt every core using the address space. Reports whether a
// translation existed (false means the caller should fill privately).
// Caller holds the address-space lock in at least read mode; concurrent
// breakers of one page race on the PTE swap, and the loser adopts the
// winner's copy.
func breakCOW(s *sharedvm.Space, cpu *hw.CPU, vpn uint64, v *sharedvm.Region) bool {
	pt := s.MMU.PageTable()
	pte, ok := s.MMU.Walker(cpu, pt).Lookup(cpu, vpn)
	if !ok {
		return false
	}
	orig := s.Alloc.ByPFN(pte.PFN)
	wperm := vm.PermBits(v.Prot)
	if pte.Perm&pagetable.PermW != 0 {
		// Another core already privatized this page; just adopt.
		s.Cache(cpu, vpn, pte)
		return true
	}
	nf := s.CopyCOWFrame(cpu, orig)
	if !s.MMU.Walker(cpu, pt).Replace(cpu, vpn, pte, nf.PFN, wperm) {
		// Lost the race to a concurrent breaker: discard our copy and
		// adopt whatever is installed now (the winner's ref on orig was
		// moved by the winner; ours never moved).
		s.Alloc.DecRef(cpu, nf)
		if cur, ok2 := s.MMU.Walker(cpu, pt).Lookup(cpu, vpn); ok2 {
			s.Cache(cpu, vpn, cur)
		}
		return true
	}
	// The page table's reference moved from the shared frame to the copy.
	s.Alloc.DecRef(cpu, orig)
	// Stale read-only translations of the old frame may be cached
	// anywhere; Linux can only broadcast.
	s.Flush(cpu, vpn, vpn+1)
	s.Cache(cpu, vpn, pagetable.PTE{PFN: nf.PFN, Perm: wperm, Present: true})
	return true
}
