package vm

import (
	"slices"

	"radixvm/internal/counter"
	"radixvm/internal/hw"
	"radixvm/internal/mem"
)

// fileSpan records one file-backed mmap: which file backs VPNs [lo, hi)
// and the file page offset at lo. The address space keeps these so a
// revocation that comes with file offsets can find their VPNs without walking
// the whole radix tree — the role the kernel's per-file rmap plays.
type fileSpan struct {
	file   *File
	lo, hi uint64 // VPN range
	off    uint64 // file page offset at lo
}

// fileRemap subtracts [lo, hi) from every recorded file span (mmap replacing
// the range, or munmap removing it) and records the range's new mapping of f
// at file offset off (none if f is nil), in one step under fileMu.
// Bookkeeping only: no virtual cost, no simulated cache traffic. In-place
// compaction keeps the slice's capacity, so steady-state map/unmap cycles of
// a file page stay allocation-free after the first round.
func (as *AddressSpace) fileRemap(lo, hi uint64, f *File, off uint64) {
	as.fileMu.Lock()
	defer as.fileMu.Unlock()
	if len(as.fileMaps) == 0 && f == nil {
		return
	}
	if as.fileMapsShared { // with the other side of a fork: compact a copy
		as.fileMaps, as.fileMapsShared = slices.Clone(as.fileMaps), false
	}
	var tail []fileSpan // right-hand pieces of split spans (rare)
	kept := as.fileMaps[:0]
	for _, sp := range as.fileMaps {
		switch {
		case sp.hi <= lo || sp.lo >= hi: // no overlap
			kept = append(kept, sp)
		case sp.lo < lo && sp.hi > hi: // split: keep both sides
			right := sp
			right.off += hi - sp.lo
			right.lo = hi
			sp.hi = lo
			kept = append(kept, sp)
			tail = append(tail, right)
		case sp.lo < lo: // keep the left piece
			sp.hi = lo
			kept = append(kept, sp)
		case sp.hi > hi: // keep the right piece, with shifted offset
			sp.off += hi - sp.lo
			sp.lo = hi
			kept = append(kept, sp)
		default: // fully covered: drop
		}
	}
	as.fileMaps = append(kept, tail...)
	if f != nil {
		as.fileMaps = append(as.fileMaps, fileSpan{file: f, lo: lo, hi: hi, off: off})
	}
}

// fileShare hands a forked child the parent's file spans: the slice itself,
// capacity clamped so an append on either side reallocates, and marked shared
// on both so a fileRemap copies before it compacts. Fork does no per-file
// work: a file finds the child when the child faults one of its pages
// (File.pageFor), not before.
func (as *AddressSpace) fileShare(child *AddressSpace) {
	as.fileMu.Lock()
	defer as.fileMu.Unlock()
	if n := len(as.fileMaps); n > 0 {
		as.fileMaps, as.fileMapsShared = as.fileMaps[:n:n], true
		child.fileMaps, child.fileMapsShared = as.fileMaps, true
	}
}

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

// revokeFile is a revocation's visit to this space: invalidate every cached
// translation it holds for f's pages in [offLo, offHi) — the hull of the
// offsets the revocation found it holding (File.revoke). Each page's metadata
// names exactly the cores that faulted it (TLBCores): every run of pages with
// one sharer set is cleared from those cores' tables and TLBs (MMU.Unmap)
// under the range lock, and the cores the round owes, the frames and the
// baseline counters go into b, whose one round covers every visit — where the
// baselines broadcast once per mapping address space. The mapping metadata
// itself survives, so a post-writeback access refaults through the page cache.
// Allocates nothing.
func (as *AddressSpace) revokeFile(cpu *hw.CPU, f *File, offLo, offHi uint64, b *revokeBatch) (int, int) {
	as.revokeMu.RLock()
	defer as.revokeMu.RUnlock()
	if as.exited.Load() {
		return 0, 0 // a leftover holder entry: the space unmapped, then exited
	}
	type window struct{ lo, hi uint64 }
	var winBuf [4]window
	wins := winBuf[:0]
	as.fileMu.Lock()
	for _, sp := range as.fileMaps {
		if sp.file != f {
			continue
		}
		oLo, oHi := sp.off, sp.off+(sp.hi-sp.lo)
		cLo, cHi := max(oLo, offLo), min(oHi, offHi)
		if cLo >= cHi {
			continue
		}
		wins = append(wins, window{sp.lo + (cLo - oLo), sp.lo + (cHi - oLo)})
	}
	as.fileMu.Unlock()

	revoked, maxSharers := 0, 0
	for _, w := range wins {
		r := as.tree.LockRange(cpu, w.lo, w.hi)
		// Read under the lock: a core that cached a page of the range noted
		// itself active before its fault took the page's lock.
		active := as.activeSet()
		// The open run: contiguous pages whose sharer sets are identical.
		var runLo, runHi uint64
		var runCores hw.CoreSet
		for i := range r.Entries() {
			e := r.Entry(i)
			v := e.Value()
			if v == nil || v.Frame == nil || v.Back.File != f {
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
	}
	return revoked, maxSharers
}
