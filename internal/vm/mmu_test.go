package vm_test

import (
	"fmt"
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
// clock on every core and the same hits, transfers and interrupts. Both MMUs
// build a core's slot on its first use, not with the MMU.
func TestMMUSlotsNotBuiltToClear(t *testing.T) {
	type lazyMMU interface {
		vm.MMU
		SlotsBuilt() int
	}
	mmus := []struct {
		name string
		new  func(m *hw.Machine) lazyMMU
	}{
		{"percore", func(m *hw.Machine) lazyMMU { return vm.NewPerCoreMMU(m) }},
		{"shared", func(m *hw.Machine) lazyMMU { return vm.NewSharedMMU(m) }},
	}
	ops := []struct {
		name string
		run  func(mmu vm.MMU, c *hw.CPU, named hw.CoreSet)
	}{
		{"Reset", func(mmu vm.MMU, c *hw.CPU, named hw.CoreSet) { mmu.Reset(c, named) }},
		{"Shootdown", func(mmu vm.MMU, c *hw.CPU, named hw.CoreSet) { mmu.Shootdown(c, 100, 104, named, named) }},
		{"Unmap", func(mmu vm.MMU, c *hw.CPU, named hw.CoreSet) { mmu.Unmap(c, 100, 104, named, named) }},
		{"Protect", func(mmu vm.MMU, c *hw.CPU, named hw.CoreSet) {
			mmu.Protect(c, 100, 104, pagetable.PermR, named, named)
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			for _, kind := range mmus {
				var clocks [2][]uint64
				var stats [2]hw.Stats
				for i, prebuilt := range []bool{false, true} {
					w := newWorld(64)
					mmu := kind.new(w.m)
					// Core 63 holds a translation, so the Reset interrupts someone.
					mmu.Fill(w.m.CPU(63), 100, 7, pagetable.PermR|pagetable.PermW)
					named := allCores(w)
					if prebuilt {
						named.ForEach(func(id int) { mmu.TLB(id) }) // built, holding nothing
					} else if got := mmu.SlotsBuilt(); got != 1 {
						t.Errorf("%s: one core's fill left %d slots built, want 1", kind.name, got)
					}
					built := mmu.SlotsBuilt()
					op.run(mmu, m0(w), named)
					foldMail(w, m0(w).Now())
					if got := mmu.SlotsBuilt(); got != built {
						t.Errorf("%s, prebuilt=%v: %s built %d slots, had %d", kind.name, prebuilt, op.name, got, built)
					}
					for id := 0; id < 64; id++ {
						clocks[i] = append(clocks[i], w.m.CPU(id).Now())
					}
					stats[i] = w.m.TotalStats()
				}
				for id := range clocks[0] {
					if clocks[0][id] != clocks[1][id] {
						t.Errorf("%s: core %d clock %d with unbuilt slots, %d with built empty ones", kind.name, id, clocks[0][id], clocks[1][id])
					}
				}
				if stats[0] != stats[1] {
					t.Errorf("%s: stats with unbuilt slots %+v, with built empty ones %+v", kind.name, stats[0], stats[1])
				}
			}
		})
	}
}

// TestMMUSlotFirstFillVsProxyClears: a core's first Fill builds its slot
// while another core unmaps the page from it by proxy and a third resets the
// whole MMU, one explorer seed a round. Whatever the interleaving, only the
// filling core's slot exists afterwards, and a quiescent Reset leaves it
// holding nothing.
func TestMMUSlotFirstFillVsProxyClears(t *testing.T) {
	for round := range hw.Seeds(50) {
		w := newWorld(3)
		mmu := vm.NewPerCoreMMU(w.m)
		var owner, all hw.CoreSet
		owner.Add(1)
		all = allCores(w)
		hw.RunGang(w.m, 3, round, func(c *hw.CPU, _ *hw.Gang) {
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

// TestAccessRightsMatchX86: every protection against every access kind, on
// the three checks that decide it — the mapping's Permits, a walk's
// PTEAllows, a TLB hit's TLBAllows — against the x86 rules written out: a
// load needs any non-empty protection, a store ProtWrite, a fetch ProtExec.
func TestAccessRightsMatchX86(t *testing.T) {
	const R, W, X = vm.ProtRead, vm.ProtWrite, vm.ProtExec
	//                 load   store  fetch
	want := [8][3]bool{
		0:         {false, false, false},
		R:         {true, false, false},
		W:         {true, true, false},
		R | W:     {true, true, false},
		X:         {true, false, true},
		R | X:     {true, false, true},
		W | X:     {true, true, true},
		R | W | X: {true, true, true},
	}
	for p := vm.Prot(0); p < 8; p++ {
		pte := pagetable.PTE{PFN: 1, Perm: vm.PermBits(p), Present: true}
		for _, k := range []vm.Kind{vm.KindRead, vm.KindWrite, vm.KindExec} {
			w := want[p][k]
			if got := p.Permits(k); got != w {
				t.Errorf("prot %03b kind %d: Permits = %v, want %v", p, k, got, w)
			}
			if got := vm.PTEAllows(pte, k); got != w {
				t.Errorf("prot %03b kind %d: PTEAllows = %v, want %v", p, k, got, w)
			}
			if got := vm.TLBAllows(vm.TLBEntry(pte), k); got != w {
				t.Errorf("prot %03b kind %d: TLBAllows = %v, want %v", p, k, got, w)
			}
		}
	}
}

// TestInterruptRoundsSkipTheCaller: every interrupt round of both MMUs
// handles the caller's own core synchronously and interrupts only the other
// cores its set names — one shootdown and one IPI per other core, none at
// all when the set names no other core, and never an IPI to the caller.
func TestInterruptRoundsSkipTheCaller(t *testing.T) {
	const ncores, self, vpn = 8, 0, 100
	shapes := []struct {
		name                string
		cores               []int
		shootdowns, ipisOut uint64
	}{
		{"empty", nil, 0, 0},
		{"caller only", []int{self}, 0, 0},
		{"caller and one", []int{self, 3}, 1, 1},
		{"two others", []int{2, 5}, 1, 2},
	}
	rounds := map[string]func(mmu vm.MMU, cpu *hw.CPU, set hw.CoreSet){
		"Shootdown": func(mmu vm.MMU, cpu *hw.CPU, set hw.CoreSet) { mmu.Shootdown(cpu, vpn, vpn+1, set, set) },
		"Protect": func(mmu vm.MMU, cpu *hw.CPU, set hw.CoreSet) {
			mmu.Protect(cpu, vpn, vpn+1, pagetable.PermR, set, set)
		},
		"Reset": func(mmu vm.MMU, cpu *hw.CPU, set hw.CoreSet) { mmu.Reset(cpu, set) },
		"ShootdownTLBOnly": func(mmu vm.MMU, cpu *hw.CPU, set hw.CoreSet) {
			mmu.(*vm.SharedMMU).ShootdownTLBOnly(cpu, vpn, vpn+1, set)
		},
	}
	for _, shared := range []bool{false, true} {
		for name, round := range rounds {
			if name == "ShootdownTLBOnly" && !shared {
				continue
			}
			for _, sh := range shapes {
				m := hw.NewMachine(hw.TestConfig(ncores))
				var mmu vm.MMU = vm.NewPerCoreMMU(m)
				if shared {
					mmu = vm.NewSharedMMU(m)
				}
				var set hw.CoreSet
				for _, id := range sh.cores {
					set.Add(id)
					mmu.Fill(m.CPU(id), vpn, 7, pagetable.PermR|pagetable.PermW)
				}
				recv := make([]uint64, ncores)
				for id := range recv {
					recv[id] = m.CPU(id).Stats().IPIsReceived()
				}
				cpu := m.CPU(self)
				st := cpu.Stats()
				sd, sent := st.Shootdowns, st.IPIsSent
				round(mmu, cpu, set)
				where := fmt.Sprintf("%s %s, %s", mmu.Name(), name, sh.name)
				if st.Shootdowns-sd != sh.shootdowns || st.IPIsSent-sent != sh.ipisOut {
					t.Errorf("%s: caller counted %d shootdowns and %d IPIs, want %d and %d",
						where, st.Shootdowns-sd, st.IPIsSent-sent, sh.shootdowns, sh.ipisOut)
				}
				for id := range recv {
					want := uint64(0)
					if id != self && set.Has(id) {
						want = 1
					}
					if got := m.CPU(id).Stats().IPIsReceived() - recv[id]; got != want {
						t.Errorf("%s: core %d received %d IPIs, want %d", where, id, got, want)
					}
				}
				if _, ok := mmu.TLB(self).Lookup(vpn); ok {
					t.Errorf("%s: the caller's TLB still caches vpn %d", where, vpn)
				}
			}
		}
	}
}
