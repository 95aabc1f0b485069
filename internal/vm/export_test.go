package vm

import (
	"slices"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/pagetable"
)

// CheckHolders is the holder oracle: if a live space's private mapping holds
// a frame of a file page, the mapping's placement is in that page's holder
// set. A mapping is private once its node is the space's own, so each space's
// VPNs [lo, hi) are range-locked first (which path-copies whatever the space
// still shares with a fork relative) and what the locked entries hold is
// checked. Nothing may be running on the spaces. It returns how many held file
// pages it checked.
func CheckHolders(t testing.TB, cpu *hw.CPU, lo, hi uint64, spaces ...*AddressSpace) int {
	t.Helper()
	held := 0
	for i, as := range spaces {
		r := as.tree.LockRange(cpu, lo, hi)
		for k := range r.Entries() {
			e := r.Entry(k)
			v := e.Value()
			if v == nil || v.Frame == nil || v.Back.File == nil {
				continue
			}
			held++
			f, off := v.Back.File, v.Back.Offset+(e.Lo-v.Start)
			p := f.page(off, false)
			if p == nil || !slices.Contains(p.holders, holder{as, v.Start - v.Back.Offset}) {
				t.Errorf("space %d holds frame %d of file page %d at VPN %d and its placement is not in the page's holder set", i, v.Frame.PFN, off, e.Lo)
			}
		}
		r.Unlock()
	}
	return held
}

// Holders returns the entries of all of f's holder sets, leftovers of exited
// spaces included.
func (f *File) Holders() int {
	n := 0
	for _, chunk := range f.pages {
		for i := range chunk {
			n += len(chunk[i].holders)
		}
	}
	return n
}

// Exited reports whether as has exited.
func (as *AddressSpace) Exited() bool { return as.exited }

// SlotsBuilt returns how many cores' slots an MMU has built.
func (s *slots[T]) SlotsBuilt() int {
	n := 0
	for id := range s.cores {
		if s.core(id) != nil {
			n++
		}
	}
	return n
}

// PeekTable returns what core id's view of the page tables holds for vpn,
// charging nothing.
func PeekTable(mmu MMU, id int, vpn uint64) (pagetable.PTE, bool) {
	var pt *pagetable.PageTable
	switch mmu := mmu.(type) {
	case *PerCoreMMU:
		pt = mmu.core(id).table()
	case *SharedMMU:
		pt = mmu.pt
	}
	if pt == nil {
		return pagetable.PTE{}, false
	}
	return pt.Peek(vpn)
}
