// Package falloc is the custom memory allocator the paper built for its
// Metis evaluation (§5.1): "this allocator is simple and designed to have
// no internal contention: memory is mapped in fixed-sized blocks, free
// lists are exclusively per-core, and the allocator never returns memory
// to the OS."
//
// The allocation unit (block size) is the experiment's key knob: 8 MB
// blocks make Metis pagefault-heavy, 64 KB blocks make it mmap-heavy
// (Figure 4).
package falloc

import (
	"fmt"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// Allocator carves objects out of fixed-size mmapped blocks with
// exclusively per-core free lists.
type Allocator struct {
	sys        vm.System
	blockPages uint64
	cores      []coreHeap
}

type coreHeap struct {
	arenaNext uint64 // bump pointer for fresh block VAs
	arenaEnd  uint64
	blockVPN  uint64              // current block (0 = none)
	blockUsed uint64              // pages used in the current block
	free      map[uint64][]uint64 // size class (pages) -> free VPNs
	_         [16]byte
}

// arenaPages is the per-core virtual address budget (2^24 pages = 64 GB).
const arenaPages = uint64(1) << 24

// New creates an allocator over sys for a machine with ncores cores, using
// blockPages pages per mmap (2048 for the paper's 8 MB unit, 16 for 64 KB).
func New(sys vm.System, ncores int, blockPages uint64) *Allocator {
	if blockPages == 0 {
		panic("falloc: zero block size")
	}
	a := &Allocator{sys: sys, blockPages: blockPages}
	a.cores = make([]coreHeap, ncores)
	for i := range a.cores {
		// Core arenas start at 64 GB spacings; arena 0 is left unused
		// so VPN 0 never allocates.
		a.cores[i].arenaNext = uint64(i+1) * arenaPages
		a.cores[i].arenaEnd = uint64(i+2) * arenaPages
		a.cores[i].free = map[uint64][]uint64{}
	}
	return a
}

// Alloc returns the VPN of a zero-filled region of npages, taken from the
// core-local free list or carved from the core's current block. Only the
// owning core may call Alloc/Free with its CPU (per-core state is
// unsynchronized by design, like the paper's allocator).
func (a *Allocator) Alloc(cpu *hw.CPU, npages uint64) (uint64, error) {
	if npages == 0 || npages > a.blockPages {
		return 0, fmt.Errorf("falloc: bad size %d (block is %d pages)", npages, a.blockPages)
	}
	h := &a.cores[cpu.ID()]
	if lst := h.free[npages]; len(lst) > 0 {
		vpn := lst[len(lst)-1]
		h.free[npages] = lst[:len(lst)-1]
		cpu.Tick(20)
		return vpn, nil
	}
	if h.blockVPN == 0 || h.blockUsed+npages > a.blockPages {
		if h.arenaNext+a.blockPages > h.arenaEnd {
			return 0, fmt.Errorf("falloc: core %d arena exhausted", cpu.ID())
		}
		vpn := h.arenaNext
		h.arenaNext += a.blockPages
		if err := a.sys.Mmap(cpu, vpn, a.blockPages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}); err != nil {
			return 0, err
		}
		h.blockVPN = vpn
		h.blockUsed = 0
	}
	vpn := h.blockVPN + h.blockUsed
	h.blockUsed += npages
	cpu.Tick(20)
	return vpn, nil
}

// Free returns a region to the core-local free list. Memory is never
// munmapped back to the OS — the paper's allocator's deliberate workaround
// for VM contention.
func (a *Allocator) Free(cpu *hw.CPU, vpn, npages uint64) {
	h := &a.cores[cpu.ID()]
	h.free[npages] = append(h.free[npages], vpn)
	cpu.Tick(20)
}
