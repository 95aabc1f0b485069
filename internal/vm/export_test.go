package vm

import (
	"slices"
	"testing"

	"radixvm/internal/hw"
)

// CheckHolders is the holder oracle: if a live space's private mapping holds
// a frame of a file page, the space is in that page's holder set. A mapping
// is private once its node is the space's own, so each space's file spans are
// range-locked first (which path-copies whatever the space still shares with
// a fork relative) and what the locked entries hold is checked. Nothing may be
// running on the spaces. It returns how many held file pages it checked.
func CheckHolders(t testing.TB, cpu *hw.CPU, spaces ...*AddressSpace) int {
	t.Helper()
	held := 0
	for i, as := range spaces {
		for _, sp := range as.fileMaps {
			r := as.tree.LockRange(cpu, sp.lo, sp.hi)
			for k := range r.Entries() {
				e := r.Entry(k)
				v := e.Value()
				if v == nil || v.Frame == nil || v.Back.File == nil {
					continue
				}
				held++
				f, off := v.Back.File, v.Back.Offset+(e.Lo-v.Start)
				f.mu.Lock()
				p := f.page(off, false)
				if p == nil || !slices.Contains(p.holders, as) {
					t.Errorf("space %d holds frame %d of file page %d at VPN %d and is not in the page's holder set", i, v.Frame.PFN, off, e.Lo)
				}
				f.mu.Unlock()
			}
			r.Unlock()
		}
	}
	return held
}

// Holders returns the entries of all of f's holder sets, leftovers of exited
// spaces included.
func (f *File) Holders() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, chunk := range f.pages {
		for i := range chunk {
			n += len(chunk[i].holders)
		}
	}
	return n
}

// Exited reports whether as has exited.
func (as *AddressSpace) Exited() bool { return as.exited.Load() }

// SlotsBuilt returns how many cores' slots mmu has built.
func (mmu *PerCoreMMU) SlotsBuilt() int {
	n := 0
	for id := range mmu.cores {
		if mmu.core(id) != nil {
			n++
		}
	}
	return n
}
