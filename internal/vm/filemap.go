package vm

import (
	"radixvm/internal/counter"
	"radixvm/internal/hw"
	"radixvm/internal/mem"
)

// revokeBatch is one revocation's shootdown, shared by every space it visits:
// the holders it takes (File.takeHolders), the cores the visits' clears owe
// an interrupt, and the references the visits took from the mappings. A file
// keeps one spare batch, so a steady-state revocation allocates nothing.
type revokeBatch struct {
	visits  []holderVisit
	targets hw.CoreSet
	frames  []*mem.Frame
	ctrs    []counter.Counter
}

// flush sends the batch's one interrupt round — to the union of the visits'
// targets, minus the sender — and only then releases the references: the
// unmapLocked discipline across spaces, and linux's batched reclaim flush
// (try_to_unmap_flush). Every table and TLB was already cleared by proxy, so
// the handlers have nothing left to do. Between a visit's unlock and the round
// a fault may refill a visited page; it gets a legal answer (a writeback's
// page is the same cached frame, re-registered for the next revocation; a
// truncated one is ErrSegv), because every frame a stale translation could
// reach is still referenced. The one thing not charged is the refault a real
// handler would cause by flushing that fresh entry.
func (b *revokeBatch) flush(cpu *hw.CPU, alloc *mem.Allocator) {
	b.targets.Remove(cpu.ID())
	if !b.targets.Empty() {
		cpu.Stats().Shootdowns++
		cpu.SendIPIs(b.targets, func(*hw.CPU) {})
	}
	for _, fr := range b.frames {
		alloc.DecRef(cpu, fr)
	}
	for _, c := range b.ctrs {
		c.Dec(cpu)
	}
	// Kept for the next revocation: it must hold no space, frame or counter.
	clear(b.visits)
	clear(b.frames)
	clear(b.ctrs)
	*b = revokeBatch{visits: b.visits[:0], frames: b.frames[:0], ctrs: b.ctrs[:0]}
}

// revokeFile is a revocation's visit to one placement of f in this space:
// invalidate every cached translation it holds through that placement (delta,
// as in holder) in VPNs [lo, hi) — the hull of the offsets the revocation
// found it holding there (File.revoke). Each page's metadata names exactly the
// cores that faulted it (TLBCores): every run of pages with one sharer set is
// cleared from those cores' tables and TLBs (MMU.Unmap) under the range lock,
// and the cores the round owes, the frames and the baseline counters go into
// b, whose one round covers every visit — where the baselines broadcast once
// per mapping address space. The mapping metadata itself survives, so a
// post-writeback access refaults through the page cache. Allocates nothing.
func (as *AddressSpace) revokeFile(cpu *hw.CPU, f *File, delta, lo, hi uint64, b *revokeBatch) (int, int) {
	if as.exited {
		return 0, 0 // a leftover holder entry: the space unmapped, then exited
	}
	as.revoking++
	defer func() { as.revoking-- }()
	revoked, maxSharers := 0, 0
	r := as.tree.LockRange(cpu, lo, hi)
	// Read under the lock: a core that cached a page of the range noted
	// itself active before its fault took the page's lock.
	active := as.activeSet()
	// The open run: contiguous pages whose sharer sets are identical.
	var runLo, runHi uint64
	var runCores hw.CoreSet
	for i := range r.Entries() {
		e := r.Entry(i)
		v := e.Value()
		if v == nil || v.Frame == nil || v.Back.File != f || v.Start-v.Back.Offset != delta {
			continue // never faulted (folded spans included), or remapped
		}
		maxSharers = max(maxSharers, v.TLBCores.Count())
		b.frames = append(b.frames, v.Frame)
		if v.altCtr != nil {
			b.ctrs = append(b.ctrs, v.altCtr)
		}
		if runHi != e.Lo || runCores != v.TLBCores {
			if runHi > runLo {
				b.targets.Union(as.mmu.Unmap(cpu, runLo, runHi, runCores, active))
			}
			runLo, runCores = e.Lo, v.TLBCores
		}
		runHi = e.Hi
		v.Frame = nil
		v.TLBCores = hw.CoreSet{}
		v.altCtr = nil
		e.Set(v)
		revoked += int(e.Hi - e.Lo)
	}
	if runHi > runLo {
		b.targets.Union(as.mmu.Unmap(cpu, runLo, runHi, runCores, active))
	}
	r.Unlock()
	return revoked, maxSharers
}
