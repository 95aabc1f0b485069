// Package bonsaivm is the Bonsai VM baseline (Clements et al., ASPLOS
// 2012 [7]): page faults are lock-free against an RCU-style persistent
// balanced tree of regions, but mmap and munmap still serialize on the
// address space lock — so it matches RadixVM on pagefault-heavy workloads
// (Figure 4, 8 MB) and collapses on mmap-heavy ones (64 KB).
//
// Like the real Bonsai system it uses a single shared page table and
// broadcast TLB shootdowns — the skeleton in internal/sharedvm, over which
// this package is the policy: index, lock, fault path.
package bonsaivm

import (
	"radixvm/internal/bonsai"
	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/pagetable"
	"radixvm/internal/refcache"
	"radixvm/internal/sharedvm"
	"radixvm/internal/vm"
)

// AddressSpace is a Bonsai-like address space.
type AddressSpace = sharedvm.Space

// New creates an empty Bonsai-like address space. Frames are counted
// through alloc; the baselines keep no Refcache objects of their own.
func New(m *hw.Machine, _ *refcache.Refcache, alloc *mem.Allocator) *AddressSpace {
	return sharedvm.New(m, alloc, "bonsai", newPolicy)
}

// policy is the Bonsai side of sharedvm.Policy. Lock-free faulters read
// regions from their snapshot, so a published Region is never mutated —
// every change republishes fresh structs.
type policy struct {
	lock    hw.Lock // serializes mmap/munmap/mprotect/fork, NOT plain fills
	regions *bonsai.Tree[sharedvm.Region]
}

func newPolicy() sharedvm.Policy { return &policy{regions: bonsai.New[sharedvm.Region]()} }

func (p *policy) Lock(cpu *hw.CPU)   { cpu.Acquire(&p.lock) }
func (p *policy) Unlock(cpu *hw.CPU) { cpu.Release(&p.lock) }
func (p *policy) Len() int           { return p.regions.Len() }

func (p *policy) Floor(cpu *hw.CPU, vpn uint64) *sharedvm.Region {
	_, r, _ := p.regions.Floor(cpu, vpn)
	return r
}

func (p *policy) Ascend(cpu *hw.CPU, from uint64, fn func(uint64, *sharedvm.Region) bool) {
	p.regions.Snapshot().Ascend(cpu, from, fn)
}

func (p *policy) Insert(cpu *hw.CPU, start uint64, r *sharedvm.Region) {
	p.regions.Insert(cpu, start, r)
}

func (p *policy) Delete(cpu *hw.CPU, start uint64) { p.regions.Delete(cpu, start) }

// Rewrite publishes a copy under old's key: a lock-free faulter may still
// hold the published region, which is never mutated.
func (p *policy) Rewrite(cpu *hw.CPU, ix sharedvm.Policy, _ *sharedvm.Region, r sharedvm.Region) {
	ix.Insert(cpu, r.Start, &r)
}

// Replace publishes without ever uncovering a page: faulters read a
// lock-free snapshot per call, so the higher-key pieces go in first (while
// old's full-width entry still covers them from below) and the last insert
// atomically replaces old's own key with its leftmost piece — never Delete.
func (p *policy) Replace(cpu *hw.CPU, ix sharedvm.Policy, old *sharedvm.Region, pieces ...sharedvm.Region) {
	for i := len(pieces) - 1; i >= 0; i-- {
		ix.Insert(cpu, pieces[i].Start, &pieces[i])
	}
}

// Fault is lock-free for plain fills: it reads an atomic snapshot of the
// region tree, installs the translation, and re-validates against the
// current tree. If a concurrent munmap removed the region in between, the
// fault undoes its installation — a simplified version of the Bonsai
// system's RCU validation protocol. Copy-on-write breaks are not fills —
// they rewrite a live translation — so like the rights-upgrade repair path
// they serialize on the address-space lock; the Bonsai design only makes
// plain faults lock-free.
func (p *policy) Fault(s *sharedvm.Space, cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error {
	v := s.Find(cpu, vpn)
	if v == nil {
		return vm.ErrSegv
	}
	if !v.Prot.Permits(k) {
		return sharedvm.Denied(cpu, trapped)
	}
	if v.COW && k == vm.KindWrite {
		return p.breakCOW(s, cpu, vpn, k, trapped)
	}
	perm := v.PermBits()
	// Each walk below names pt: s.Fill walks the table a fork's Reset may
	// have installed since, through the same per-core Walker.
	pt := s.MMU.PageTable()
	pte, installed, ok := s.Fill(cpu, v, vpn, perm)
	if !ok {
		return vm.ErrSegv
	}
	if !installed {
		// Raced with another faulter on the same page; adopt theirs,
		// upgrading the PTE's rights if the region now grants more.
		if pte, ok := s.MMU.Walker(cpu, pt).Lookup(cpu, vpn); ok {
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
				p.Lock(cpu)
				cur := s.Find(cpu, vpn)
				cur2, ok2 := pt.Peek(vpn)
				switch {
				case cur == nil:
					p.Unlock(cpu)
					return vm.ErrSegv
				case !cur.Prot.Permits(k):
					p.Unlock(cpu)
					return sharedvm.Denied(cpu, trapped)
				case !ok2:
					// The mapping was replaced wholesale between our
					// snapshot and the lock: retry as a fresh fault.
					p.Unlock(cpu)
					return s.Fault(cpu, vpn, k, trapped)
				}
				perm = cur.PermBits()
				if cur2.Perm&perm != perm {
					s.MMU.Walker(cpu, pt).Map(cpu, vpn, cur2.PFN, perm)
					cur2.Perm = perm
				}
				p.Unlock(cpu)
				pte = cur2
			}
			s.Cache(cpu, vpn, pte)
		}
		return nil
	}
	// Re-validate: a munmap may have cleared this range — or an mprotect
	// changed its rights, a fork COW'd it, or a remap put another file page
	// behind it — between our snapshot read and the PTE install, and our
	// stale install would outlive the syscall's shootdown. The repair path
	// is rare (it requires losing that race), so it serializes on the
	// address-space lock and broadcasts a flush for the page: any third core
	// that walked the transient PTE into its TLB is flushed.
	cur := s.Find(cpu, vpn)
	if cur == nil || cur.Prot != v.Prot || cur.COW != v.COW || !sameBacking(cur, v, vpn) {
		p.Lock(cpu)
		cur = s.Find(cpu, vpn)
		if cur == nil || !sameBacking(cur, v, vpn) {
			// Whoever clears a PTE drops the reference it held. The Munmap
			// that removed the region may already have swapped our entry
			// out and dropped frame's reference, so release only what this
			// sweep clears — which is then our frame, or another stale
			// faulter's install that landed after Munmap's sweep.
			s.Sweep(cpu, vpn, vpn+1)
			p.Unlock(cpu)
			if cur == nil {
				return vm.ErrSegv
			}
			// The page is mapped, to something else: fault it afresh.
			return s.Fault(cpu, vpn, k, trapped)
		}
		if curPerm := cur.PermBits(); curPerm != perm {
			if now, ok := pt.Peek(vpn); !ok || now.PFN != pte.PFN {
				// A COW break behind a fork replaced our install, and
				// dropped its reference, while we waited for the lock:
				// rewriting our frame back would orphan the copy and map
				// ours unreferenced. Fault against what is there now.
				p.Unlock(cpu)
				return s.Fault(cpu, vpn, k, trapped)
			}
			s.MMU.Walker(cpu, pt).Map(cpu, vpn, pte.PFN, curPerm)
			s.Flush(cpu, vpn, vpn+1)
			pte.Perm = curPerm
		}
		allowed := cur.Prot.Permits(k)
		p.Unlock(cpu)
		if !allowed {
			// The page stays mapped and resident with its current
			// (narrower) rights; only this access is denied.
			return sharedvm.Denied(cpu, trapped)
		}
	}
	s.Cache(cpu, vpn, pte)
	return nil
}

// sameBacking reports whether vpn is backed by the same thing in both
// regions: anonymous memory, or the same page of the same file. Comparing
// the page, not the regions' offsets, keeps a neighbouring split — which
// re-keys the region but not what is behind vpn — from counting.
func sameBacking(a, b *sharedvm.Region, vpn uint64) bool {
	af, aoff := a.Page(vpn)
	bf, boff := b.Page(vpn)
	return af == bf && aoff == boff
}

// breakCOW resolves a write fault in a COW region under the address-space
// lock. With the lock held no munmap, mprotect, fork, or other break can
// interleave; only lock-free read fills race, which MapIfAbsent absorbs.
func (p *policy) breakCOW(s *sharedvm.Space, cpu *hw.CPU, vpn uint64, k vm.Kind, trapped bool) error {
	p.Lock(cpu)
	cur := s.Find(cpu, vpn)
	if cur != nil && cur.Prot.Permits(k) && !cur.COW {
		// The region was replaced (e.g. remapped) since our snapshot;
		// retry as a plain fault.
		p.Unlock(cpu)
		return s.Fault(cpu, vpn, k, trapped)
	}
	defer p.Unlock(cpu)
	if cur == nil {
		return vm.ErrSegv
	}
	if !cur.Prot.Permits(k) {
		return sharedvm.Denied(cpu, trapped)
	}
	pt := s.MMU.PageTable()
	wperm := vm.PermBits(cur.Prot)
	for {
		pte, ok := s.MMU.Walker(cpu, pt).Lookup(cpu, vpn)
		switch {
		case !ok:
			// Never faulted in this space: no frame is shared, so fill
			// privately with full rights. A lock-free reader may race the
			// install; on failure, loop and resolve against its PTE.
			frame := s.Alloc.Alloc(cpu)
			if !s.MMU.Walker(cpu, pt).MapIfAbsent(cpu, vpn, frame.PFN, wperm) {
				s.Alloc.DecRef(cpu, frame)
				continue
			}
			pte = pagetable.PTE{PFN: frame.PFN, Perm: wperm, Present: true}
		case pte.Perm&pagetable.PermW == 0:
			orig := s.Alloc.ByPFN(pte.PFN)
			nf := s.CopyCOWFrame(cpu, orig)
			s.MMU.Walker(cpu, pt).Map(cpu, vpn, nf.PFN, wperm)
			s.Alloc.DecRef(cpu, orig) // the page table's ref moved to the copy
			// Stale read-only translations of the old frame may be cached
			// anywhere; the shared MMU can only broadcast.
			s.Flush(cpu, vpn, vpn+1)
			pte = pagetable.PTE{PFN: nf.PFN, Perm: wperm, Present: true}
		}
		// (A PTE found writable was privatized by an earlier break.)
		s.Cache(cpu, vpn, pte)
		return nil
	}
}
