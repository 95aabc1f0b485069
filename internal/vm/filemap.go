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

// RevokeFilePages implements FileMapper for RadixVM: invalidate every
// cached translation this space holds for f's pages in [offLo, offHi) — the
// hull of the offsets a revocation found this space holding (File.revoke).
// Each page's metadata names exactly the cores that faulted it (TLBCores), so
// the shootdown interrupts precisely the pages' sharers, in one round: every
// run of pages with one sharer set is cleared from those cores' tables
// (MMU.Unmap), then the union is interrupted once (MMU.Interrupt) — where the
// baselines must broadcast to every core using every mapping address space.
// Frame references drop so truncated pages can die; the mapping metadata
// itself survives, so a post-writeback access refaults through the page
// cache. Allocates nothing.
func (as *AddressSpace) RevokeFilePages(cpu *hw.CPU, f *File, offLo, offHi uint64) (int, int) {
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
		var framesBuf [32]*mem.Frame
		var ctrsBuf [4]counter.Counter
		frames := framesBuf[:0]
		ctrs := ctrsBuf[:0]
		// The open run: contiguous pages whose sharer sets are identical.
		var runLo, runHi uint64
		var runCores, union hw.CoreSet
		for i := range r.Entries() {
			e := r.Entry(i)
			v := e.Value()
			if v == nil || v.Frame == nil || v.Back.File != f {
				continue // never faulted (folded spans included), or remapped
			}
			maxSharers = max(maxSharers, v.TLBCores.Count())
			frames = append(frames, v.Frame)
			if v.altCtr != nil {
				ctrs = append(ctrs, v.altCtr)
			}
			if runHi != e.Lo || runCores != v.TLBCores {
				if runHi > runLo {
					as.mmu.Unmap(cpu, runLo, runHi, runCores)
				}
				runLo, runCores = e.Lo, v.TLBCores
				union.Union(runCores)
			}
			runHi = e.Hi
			v.Frame = nil
			v.TLBCores = hw.CoreSet{}
			v.altCtr = nil
			e.Set(v)
			revoked += int(e.Hi - e.Lo)
		}
		// Gather, shoot down, then release references — the unmapLocked
		// discipline, so no page can be reused while a TLB still maps it.
		if len(frames) > 0 {
			as.mmu.Unmap(cpu, runLo, runHi, runCores)
			as.mmu.Interrupt(cpu, r.Lo, r.Hi, union, as.activeSet())
		}
		for _, fr := range frames {
			as.alloc.DecRef(cpu, fr)
		}
		for _, c := range ctrs {
			c.Dec(cpu)
		}
		r.Unlock()
	}
	return revoked, maxSharers
}
