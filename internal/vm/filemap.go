package vm

import (
	"radixvm/internal/counter"
	"radixvm/internal/hw"
	"radixvm/internal/mem"
)

// fileSpan records one file-backed mmap: which file backs VPNs [lo, hi)
// and the file page offset at lo. The address space keeps these so a
// writeback or truncate of the file can find its mappings without walking
// the whole radix tree — the role the kernel's per-file rmap plays.
type fileSpan struct {
	file   *File
	lo, hi uint64 // VPN range
	off    uint64 // file page offset at lo
}

// fileRemap subtracts [lo, hi) from every recorded file span (mmap replacing
// the range, or munmap removing it) and records the range's new mapping of f
// at file offset off (none if f is nil), in one step under fileMu — so a
// space that maps f over its only region of f never leaves f's mm registry:
// a concurrent Writeback finds whatever a fault installs in between, and the
// space keeps its place in the revoke order. The registry is updated after
// the hold (File.mu is never taken under fileMu), joining f before leaving
// the files this space no longer maps at all. Bookkeeping only: no virtual
// cost, no simulated cache traffic. In-place compaction keeps the slice's
// capacity, so steady-state map/unmap cycles of a file page stay
// allocation-free after the first round.
func (as *AddressSpace) fileRemap(lo, hi uint64, f *File, off uint64) {
	as.fileMu.Lock()
	if len(as.fileMaps) == 0 && f == nil {
		as.fileMu.Unlock()
		return
	}
	had := make(map[*File]bool, 2)
	for _, sp := range as.fileMaps {
		had[sp.file] = true
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
	joins := f != nil && !had[f]
	if f != nil {
		as.fileMaps = append(as.fileMaps, fileSpan{file: f, lo: lo, hi: hi, off: off})
	}
	// Files with no surviving span lose their registration, so later
	// writebacks skip this space entirely; partial trims keep it.
	for _, sp := range as.fileMaps {
		delete(had, sp.file)
	}
	gone := make([]*File, 0, len(had))
	for g := range had {
		gone = append(gone, g)
	}
	as.fileMu.Unlock()
	if joins {
		f.RegisterMapper(as)
	}
	for _, g := range gone {
		g.UnregisterMapper(as)
	}
}

// fileShare copies the parent's file spans to a forked child and registers
// the child with each file — the fix for fork's file-page sharing: the
// child's mappings share the cache frames, so post-fork writebacks must be
// able to find and shoot down the child's translations too.
func (as *AddressSpace) fileShare(child *AddressSpace) {
	as.fileMu.Lock()
	spans := append([]fileSpan(nil), as.fileMaps...)
	as.fileMu.Unlock()
	if len(spans) == 0 {
		return
	}
	child.fileMu.Lock()
	child.fileMaps = spans
	child.fileMu.Unlock()
	for _, sp := range spans {
		sp.file.RegisterMapper(child) // idempotent across multiple spans
	}
}

// fileDropAll unregisters this space from every file it maps (Exit).
func (as *AddressSpace) fileDropAll() {
	as.fileMu.Lock()
	spans := as.fileMaps
	as.fileMaps = nil
	as.fileMu.Unlock()
	for _, sp := range spans {
		sp.file.UnregisterMapper(as)
	}
}

// RevokeFilePages implements FileMapper for RadixVM: invalidate every
// cached translation this space holds for f's pages in [offLo, offHi).
// Each page's metadata names exactly the cores that faulted it (TLBCores),
// so the shootdown interrupts precisely the page's sharers — contiguous
// pages with identical sharer sets share one shootdown round — where the
// baselines must broadcast to every core using every mapping address
// space. Frame references drop so truncated pages can die; the mapping
// metadata itself survives, so a post-writeback access refaults through
// the page cache.
func (as *AddressSpace) RevokeFilePages(cpu *hw.CPU, f *File, offLo, offHi uint64) (int, int) {
	as.revokeMu.RLock()
	defer as.revokeMu.RUnlock()
	if as.exited {
		return 0, 0
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
		var framesBuf [16]*mem.Frame
		var ctrsBuf [4]counter.Counter
		frames := framesBuf[:0]
		ctrs := ctrsBuf[:0]
		// Contiguous pages whose sharer sets are identical share one
		// shootdown round; the IPI count is the same either way (the sum
		// of per-page sharer-set sizes), rounds just batch.
		type run struct {
			lo, hi  uint64
			targets hw.CoreSet
		}
		var runBuf [8]run
		runs := runBuf[:0]
		for i := range r.Entries() {
			e := r.Entry(i)
			v := e.Value()
			if v == nil || v.Frame == nil || v.Back.File != f {
				continue // never faulted (folded spans included), or remapped
			}
			if n := v.TLBCores.Count(); n > maxSharers {
				maxSharers = n
			}
			frames = append(frames, v.Frame)
			if v.altCtr != nil {
				ctrs = append(ctrs, v.altCtr)
			}
			if n := len(runs); n > 0 && runs[n-1].hi == e.Lo && runs[n-1].targets == v.TLBCores {
				runs[n-1].hi = e.Hi
			} else {
				runs = append(runs, run{lo: e.Lo, hi: e.Hi, targets: v.TLBCores})
			}
			v.Frame = nil
			v.TLBCores = hw.CoreSet{}
			v.altCtr = nil
			e.Set(v)
			revoked += int(e.Hi - e.Lo)
		}
		// Gather, shoot down, then release references — the unmapLocked
		// discipline, so no page can be reused while a TLB still maps it.
		for i := range runs {
			as.mmu.Shootdown(cpu, runs[i].lo, runs[i].hi, runs[i].targets, as.activeSet())
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
