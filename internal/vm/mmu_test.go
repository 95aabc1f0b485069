package vm_test

import (
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/pagetable"
	"radixvm/internal/vm"
)

// TestMMUSlotsOnlyWhereTheChildRuns: a child forked off a parent that ran on
// all 64 cores, then run on two of them, builds exactly two per-core MMU
// slots — also after its exit, whose Reset names every core it ran on and the
// exiting one.
func TestMMUSlotsOnlyWhereTheChildRuns(t *testing.T) {
	w := newWorld(64)
	c := m0(w)
	parent := vm.New(w.m, w.rc, w.alloc, nil)
	must(t, parent.Mmap(c, 100, 8, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for id := 0; id < 64; id++ {
		must(t, parent.Access(w.m.CPU(id), 100, false))
	}
	if got := parent.MMU().(*vm.PerCoreMMU).SlotsBuilt(); got != 64 {
		t.Fatalf("parent that ran on 64 cores built %d slots", got)
	}
	sys, err := parent.Fork(c)
	must(t, err)
	child := sys.(*vm.AddressSpace)
	for _, id := range []int{5, 40} {
		must(t, child.Access(w.m.CPU(id), 100, false))
		must(t, child.Access(w.m.CPU(id), 101+uint64(id%4), true))
	}
	mmu := child.MMU().(*vm.PerCoreMMU)
	if got := mmu.SlotsBuilt(); got != 2 {
		t.Errorf("child run on 2 of 64 cores built %d MMU slots, want 2", got)
	}
	exit(c, child)
	if got := mmu.SlotsBuilt(); got != 2 {
		t.Errorf("after exit: %d MMU slots built, want 2", got)
	}
}

// TestMMUSlotsNotBuiltToClear: a Reset, Shootdown, Unmap or Protect that
// names cores which never used the MMU builds no slot for them, and charges
// exactly what it charges when their slots are built but empty: the same
// clock on every core and the same hits, transfers and interrupts.
func TestMMUSlotsNotBuiltToClear(t *testing.T) {
	ops := []struct {
		name string
		run  func(mmu *vm.PerCoreMMU, c *hw.CPU, named hw.CoreSet)
	}{
		{"Reset", func(mmu *vm.PerCoreMMU, c *hw.CPU, named hw.CoreSet) { mmu.Reset(c, named) }},
		{"Shootdown", func(mmu *vm.PerCoreMMU, c *hw.CPU, named hw.CoreSet) { mmu.Shootdown(c, 100, 104, named, named) }},
		{"Unmap", func(mmu *vm.PerCoreMMU, c *hw.CPU, named hw.CoreSet) { mmu.Unmap(c, 100, 104, named, named) }},
		{"Protect", func(mmu *vm.PerCoreMMU, c *hw.CPU, named hw.CoreSet) {
			mmu.Protect(c, 100, 104, pagetable.PermR, named, named)
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			var clocks [2][]uint64
			var stats [2]hw.Stats
			for i, prebuilt := range []bool{false, true} {
				w := newWorld(64)
				mmu := vm.NewPerCoreMMU(w.m)
				// Core 63 holds a translation, so the Reset interrupts someone.
				mmu.Fill(w.m.CPU(63), 100, 7, pagetable.PermR|pagetable.PermW)
				named := allCores(w)
				if prebuilt {
					named.ForEach(func(id int) { mmu.TLB(id) }) // built, holding nothing
				}
				built := mmu.SlotsBuilt()
				op.run(mmu, m0(w), named)
				foldMail(w, m0(w).Now())
				if got := mmu.SlotsBuilt(); got != built {
					t.Errorf("prebuilt=%v: %s built %d slots, had %d", prebuilt, op.name, got, built)
				}
				for id := 0; id < 64; id++ {
					clocks[i] = append(clocks[i], w.m.CPU(id).Now())
				}
				stats[i] = w.m.TotalStats()
			}
			for id := range clocks[0] {
				if clocks[0][id] != clocks[1][id] {
					t.Errorf("core %d clock %d with unbuilt slots, %d with built empty ones", id, clocks[0][id], clocks[1][id])
				}
			}
			if stats[0] != stats[1] {
				t.Errorf("stats with unbuilt slots %+v, with built empty ones %+v", stats[0], stats[1])
			}
		})
	}
}

// TestMMUSlotFirstFillVsProxyClears is for the race detector: a core's first
// Fill builds its slot while another core unmaps the page from it by proxy
// and a third resets the whole MMU. Whatever the interleaving, only the
// filling core's slot exists afterwards, and a quiescent Reset leaves it
// holding nothing.
func TestMMUSlotFirstFillVsProxyClears(t *testing.T) {
	for round := 0; round < 50; round++ {
		w := newWorld(3)
		mmu := vm.NewPerCoreMMU(w.m)
		var owner, all hw.CoreSet
		owner.Add(1)
		all = allCores(w)
		hw.RunGang(w.m, 3, 2000, func(c *hw.CPU, _ *hw.Gang) {
			switch c.ID() {
			case 0:
				mmu.Unmap(c, 100, 101, owner, all)
			case 1:
				mmu.Fill(c, 100, 7, pagetable.PermR)
			case 2:
				mmu.Reset(c, all)
			}
		})
		if got := mmu.SlotsBuilt(); got != 1 {
			t.Fatalf("round %d: %d slots built, want only the filling core's", round, got)
		}
		mmu.Reset(m0(w), all)
		if _, ok := mmu.Lookup(w.m.CPU(1), 100); ok || mmu.TLB(1).Len() != 0 || mmu.Bytes() != 0 {
			t.Fatalf("round %d: core 1 still holds a translation after a quiescent Reset", round)
		}
	}
}
