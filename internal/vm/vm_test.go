package vm_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

type world struct {
	m     *hw.Machine
	rc    *refcache.Refcache
	alloc *mem.Allocator
}

func newWorld(ncores int) *world {
	m := hw.NewMachine(hw.TestConfig(ncores))
	rc := refcache.New(m)
	return &world{m: m, rc: rc, alloc: mem.NewAllocator(m, rc)}
}

func (w *world) quiesce() {
	for i := 0; i < 20; i++ {
		w.rc.FlushAll()
	}
}

// systems builds one of each VM system over the same world.
func systems(w *world) []vm.System {
	return []vm.System{
		vm.New(w.m, w.rc, w.alloc, nil),
		linuxvm.New(w.m, w.rc, w.alloc),
		bonsaivm.New(w.m, w.rc, w.alloc),
	}
}

func TestMapAccessUnmapAllSystems(t *testing.T) {
	for _, sysName := range []string{"radixvm", "linux", "bonsai"} {
		t.Run(sysName, func(t *testing.T) {
			w := newWorld(2)
			var sys vm.System
			for _, s := range systems(w) {
				if s.Name() == sysName {
					sys = s
				}
			}
			c := m0(w)
			if err := sys.Access(c, 100, true); !errors.Is(err, vm.ErrSegv) {
				t.Fatalf("access before mmap: %v", err)
			}
			if err := sys.Mmap(c, 100, 10, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}); err != nil {
				t.Fatal(err)
			}
			for vpn := uint64(100); vpn < 110; vpn++ {
				if err := sys.Access(c, vpn, true); err != nil {
					t.Fatalf("access %d: %v", vpn, err)
				}
			}
			// Second access round: TLB hits, no new faults.
			faults := c.Stats().PageFaults
			for vpn := uint64(100); vpn < 110; vpn++ {
				if err := sys.Access(c, vpn, true); err != nil {
					t.Fatal(err)
				}
			}
			if c.Stats().PageFaults != faults {
				t.Fatalf("re-access faulted: %d -> %d", faults, c.Stats().PageFaults)
			}
			if err := sys.Munmap(c, 100, 10); err != nil {
				t.Fatal(err)
			}
			if err := sys.Access(c, 105, false); !errors.Is(err, vm.ErrSegv) {
				t.Fatalf("access after munmap: %v", err)
			}
			w.quiesce()
			if live := w.alloc.Live(); live != 0 {
				t.Fatalf("%d frames leaked", live)
			}
		})
	}
}

func m0(w *world) *hw.CPU { return w.m.CPU(0) }

func TestMunmapOrderingInvariant(t *testing.T) {
	// After Munmap returns, no core's TLB or page table maps the range —
	// even cores that faulted the pages in. This is the paper's central
	// correctness requirement.
	for i, sys := range systems(newWorld(4)) {
		_ = i
		w := newWorld(4)
		sys = systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			c0, c1 := w.m.CPU(0), w.m.CPU(1)
			if err := sys.Mmap(c0, 1000, 4, vm.MapOpts{Prot: vm.ProtWrite}); err != nil {
				t.Fatal(err)
			}
			// Both cores fault the pages in.
			for vpn := uint64(1000); vpn < 1004; vpn++ {
				if err := sys.Access(c0, vpn, true); err != nil {
					t.Fatal(err)
				}
				if err := sys.Access(c1, vpn, true); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Munmap(c0, 1000, 4); err != nil {
				t.Fatal(err)
			}
			// Core 1 must fault (and fail), not silently hit a stale
			// translation.
			if err := sys.Access(c1, 1002, false); !errors.Is(err, vm.ErrSegv) {
				t.Fatalf("stale translation survived munmap: %v", err)
			}
		})
	}
}

func TestPartialMunmapSplitsMapping(t *testing.T) {
	for i := range systems(newWorld(1)) {
		w := newWorld(1)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			c := m0(w)
			if err := sys.Mmap(c, 200, 100, vm.MapOpts{Prot: vm.ProtWrite}); err != nil {
				t.Fatal(err)
			}
			if err := sys.Munmap(c, 230, 10); err != nil {
				t.Fatal(err)
			}
			if err := sys.Access(c, 229, true); err != nil {
				t.Fatalf("left piece lost: %v", err)
			}
			if err := sys.Access(c, 235, true); !errors.Is(err, vm.ErrSegv) {
				t.Fatalf("hole still mapped: %v", err)
			}
			if err := sys.Access(c, 240, true); err != nil {
				t.Fatalf("right piece lost: %v", err)
			}
		})
	}
}

func TestFileMappingsShareFrames(t *testing.T) {
	for i := range systems(newWorld(2)) {
		w := newWorld(2)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			f := vm.NewFile(w.alloc)
			c0, c1 := w.m.CPU(0), w.m.CPU(1)
			if err := sys.Mmap(c0, 500, 1, vm.MapOpts{Prot: vm.ProtRead, File: f}); err != nil {
				t.Fatal(err)
			}
			if err := sys.Mmap(c1, 600, 1, vm.MapOpts{Prot: vm.ProtRead, File: f}); err != nil {
				t.Fatal(err)
			}
			if err := sys.Access(c0, 500, false); err != nil {
				t.Fatal(err)
			}
			if err := sys.Access(c1, 600, false); err != nil {
				t.Fatal(err)
			}
			// One file page: exactly one frame despite two mappings.
			if created := w.alloc.Created(); created != 1 {
				t.Fatalf("file page duplicated: %d frames", created)
			}
			// Unmapping one alias must not kill the shared frame.
			if err := sys.Munmap(c0, 500, 1); err != nil {
				t.Fatal(err)
			}
			w.quiesce()
			if live := w.alloc.Live(); live != 1 {
				t.Fatalf("shared frame freed early or leaked: live=%d", live)
			}
		})
	}
}

func TestRemapReplacesExisting(t *testing.T) {
	for i := range systems(newWorld(1)) {
		w := newWorld(1)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			c := m0(w)
			if err := sys.Mmap(c, 50, 10, vm.MapOpts{Prot: vm.ProtWrite}); err != nil {
				t.Fatal(err)
			}
			for vpn := uint64(50); vpn < 60; vpn++ {
				if err := sys.Access(c, vpn, true); err != nil {
					t.Fatal(err)
				}
			}
			faults := c.Stats().PageFaults
			// Overlapping re-mmap: old frames released, pages fault anew.
			if err := sys.Mmap(c, 55, 10, vm.MapOpts{Prot: vm.ProtWrite}); err != nil {
				t.Fatal(err)
			}
			if err := sys.Access(c, 57, true); err != nil {
				t.Fatal(err)
			}
			if c.Stats().PageFaults == faults {
				t.Fatal("remapped page did not fault freshly")
			}
			w.quiesce()
			// 10 still-mapped from first (50..55 live, 5 pages) + 1
			// faulted on the remap. Frames for 55..60's first
			// generation must have been freed.
			if live := w.alloc.Live(); live != 6 {
				t.Fatalf("Live = %d, want 6", live)
			}
		})
	}
}

func TestRadixVMTargetedShootdown(t *testing.T) {
	// A region only core 0 touched: munmap from core 0 sends no IPIs.
	// Then a region both touched: exactly one IPI to the other core.
	w := newWorld(4)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c0, c1 := w.m.CPU(0), w.m.CPU(1)
	must(t, as.Mmap(c0, 100, 4, vm.MapOpts{Prot: vm.ProtWrite}))
	for vpn := uint64(100); vpn < 104; vpn++ {
		must(t, as.Access(c0, vpn, true))
	}
	must(t, as.Munmap(c0, 100, 4))
	if got := c0.Stats().IPIsSent; got != 0 {
		t.Fatalf("local-only munmap sent %d IPIs, want 0", got)
	}

	must(t, as.Mmap(c0, 200, 4, vm.MapOpts{Prot: vm.ProtWrite}))
	for vpn := uint64(200); vpn < 204; vpn++ {
		must(t, as.Access(c0, vpn, true))
		must(t, as.Access(c1, vpn, true))
	}
	must(t, as.Munmap(c0, 200, 4))
	if got := c0.Stats().IPIsSent; got != 1 {
		t.Fatalf("two-core munmap sent %d IPIs, want exactly 1", got)
	}
	// Cores 2,3 were active in the address space? They weren't; but even
	// if they were, they never faulted these pages. Verify precision by
	// activating them first.
	must(t, as.Mmap(w.m.CPU(2), 300, 1, vm.MapOpts{}))
	must(t, as.Mmap(c0, 400, 4, vm.MapOpts{Prot: vm.ProtWrite}))
	must(t, as.Access(c0, 400, true))
	must(t, as.Access(c1, 400, true))
	before := c0.Stats().IPIsSent
	must(t, as.Munmap(c0, 400, 4))
	if got := c0.Stats().IPIsSent - before; got != 1 {
		t.Fatalf("munmap interrupted %d cores, want 1 (precise targeting)", got)
	}
}

func TestLinuxBroadcastShootdown(t *testing.T) {
	// Linux must interrupt every active core, even ones that never
	// touched the region — the conservative design RadixVM fixes.
	w := newWorld(4)
	as := linuxvm.New(w.m, w.rc, w.alloc)
	c0 := w.m.CPU(0)
	for i := 1; i < 4; i++ {
		// Activate cores 1..3 in the address space elsewhere.
		must(t, as.Mmap(w.m.CPU(i), uint64(1000*i), 1, vm.MapOpts{Prot: vm.ProtWrite}))
		must(t, as.Access(w.m.CPU(i), uint64(1000*i), true))
	}
	must(t, as.Mmap(c0, 100, 1, vm.MapOpts{Prot: vm.ProtWrite}))
	must(t, as.Access(c0, 100, true))
	must(t, as.Munmap(c0, 100, 1))
	if got := c0.Stats().IPIsSent; got != 3 {
		t.Fatalf("broadcast sent %d IPIs, want 3 (all active cores)", got)
	}
}

func TestRadixVMDisjointOpsZeroContention(t *testing.T) {
	// End-to-end headline: cores doing mmap/fault/munmap in disjoint
	// address ranges move no cache lines between them.
	const ncores = 4
	w := newWorld(ncores)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	base := func(id int) uint64 { return uint64(id*8+8) << 18 } // distinct subtrees & lines
	warm := func(c *hw.CPU) {
		lo := base(c.ID())
		must(t, as.Mmap(c, lo, 4, vm.MapOpts{Prot: vm.ProtWrite}))
		for v := lo; v < lo+4; v++ {
			must(t, as.Access(c, v, true))
		}
		must(t, as.Munmap(c, lo, 4))
	}
	for i := 0; i < ncores; i++ {
		warm(w.m.CPU(i))
		warm(w.m.CPU(i)) // twice: frames + weak lines settle
	}
	w.m.ResetStats()
	hw.RunGang(w.m, ncores, func(c *hw.CPU, g *hw.Gang) {
		lo := base(c.ID())
		for k := 0; k < 100; k++ {
			must(t, as.Mmap(c, lo, 4, vm.MapOpts{Prot: vm.ProtWrite}))
			for v := lo; v < lo+4; v++ {
				must(t, as.Access(c, v, true))
			}
			must(t, as.Munmap(c, lo, 4))
			g.Sync(c)
		}
	})
	if tr := w.m.TotalStats().Transfers; tr != 0 {
		t.Errorf("disjoint VM ops moved %d cache lines, want 0", tr)
	}
	if ipi := w.m.TotalStats().IPIsSent; ipi != 0 {
		t.Errorf("disjoint VM ops sent %d IPIs, want 0", ipi)
	}
}

func TestConcurrentFaultVsMunmapRace(t *testing.T) {
	// §3.4: a pagefault racing a munmap either completes first (and its
	// page is then shot down) or sees no mapping. Never a stale success
	// after munmap returns.
	for i := range systems(newWorld(2)) {
		w := newWorld(2)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for round := 0; round < 50; round++ {
				c0 := w.m.CPU(0)
				must(t, sys.Mmap(c0, 700, 8, vm.MapOpts{Prot: vm.ProtWrite}))
				done := make(chan struct{})
				go func() {
					defer close(done)
					c1 := w.m.CPU(1)
					for v := uint64(700); v < 708; v++ {
						sys.Access(c1, v, true) // may segv; must not wedge
					}
				}()
				if rng.Intn(2) == 0 {
					c0.Tick(100)
				}
				must(t, sys.Munmap(c0, 700, 8))
				<-done
				// Post-munmap, both cores must see it unmapped.
				if err := sys.Access(w.m.CPU(1), 703, false); !errors.Is(err, vm.ErrSegv) {
					t.Fatalf("round %d: stale access after munmap: %v", round, err)
				}
				w.rc.Maintain(c0)
			}
			w.quiesce()
			if live := w.alloc.Live(); live != 0 {
				t.Fatalf("%d frames leaked in race", live)
			}
		})
	}
}

func TestSharedMMUModeWorks(t *testing.T) {
	// RadixVM with shared page tables (the Figure 9 ablation) must be
	// functionally identical, just slower/broadcast-y.
	w := newWorld(3)
	as := vm.New(w.m, w.rc, w.alloc, vm.NewSharedMMU(w.m))
	c0, c1 := w.m.CPU(0), w.m.CPU(1)
	must(t, as.Mmap(c0, 100, 2, vm.MapOpts{Prot: vm.ProtWrite}))
	must(t, as.Access(c0, 100, true))
	// With a shared table, core 1's access is a hardware walk, not a
	// fault.
	faults := c1.Stats().PageFaults
	must(t, as.Access(c1, 100, true))
	if c1.Stats().PageFaults != faults {
		t.Fatal("shared table still faulted on second core")
	}
	must(t, as.Munmap(c0, 100, 2))
	if err := as.Access(c1, 100, false); !errors.Is(err, vm.ErrSegv) {
		t.Fatalf("stale shared-table access: %v", err)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestProtectionEnforced is the satellite regression for the seed bug
// where PageFault and Access ignored the write flag entirely: a write to a
// read-only mapping must fault with ErrProt while reads proceed — on every
// system, and regardless of whether a read already cached a (read-only)
// translation.
func TestProtectionEnforced(t *testing.T) {
	for i := range systems(newWorld(1)) {
		w := newWorld(1)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			c := m0(w)
			must(t, sys.Mmap(c, 100, 4, vm.MapOpts{Prot: vm.ProtRead}))
			// Write to a read-only mapping: ErrProt (not ErrSegv — the
			// page is mapped).
			if err := sys.Access(c, 100, true); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("write to read-only mapping: %v, want ErrProt", err)
			}
			// Reads must not fault.
			if err := sys.Access(c, 100, false); err != nil {
				t.Fatalf("read of read-only mapping: %v", err)
			}
			// The read cached a translation; a write must STILL trap on
			// its permission bits, not sail through the TLB.
			if err := sys.Access(c, 100, true); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("write after read-only fill: %v, want ErrProt", err)
			}
			// PROT_NONE blocks both.
			must(t, sys.Mmap(c, 200, 1, vm.MapOpts{}))
			if err := sys.Access(c, 200, false); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("read of PROT_NONE mapping: %v, want ErrProt", err)
			}
			if err := sys.Access(c, 200, true); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("write to PROT_NONE mapping: %v, want ErrProt", err)
			}
			// Write-implies-read, as on x86.
			must(t, sys.Mmap(c, 300, 1, vm.MapOpts{Prot: vm.ProtWrite}))
			must(t, sys.Access(c, 300, true))
			must(t, sys.Access(c, 300, false))
		})
	}
}

// TestProtNoneRevokesCachedReads: downgrading to PROT_NONE must block
// reads even when translations were cached (PTEs stay present with no
// rights, so the walk traps instead of re-filling the TLB).
func TestProtNoneRevokesCachedReads(t *testing.T) {
	for i := range systems(newWorld(1)) {
		w := newWorld(1)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			c := m0(w)
			must(t, sys.Mmap(c, 100, 2, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
			must(t, sys.Access(c, 100, true)) // fault in, cache translation
			must(t, sys.Mprotect(c, 100, 2, 0))
			if err := sys.Access(c, 100, false); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("read through cached translation after PROT_NONE: %v, want ErrProt", err)
			}
			if err := sys.Access(c, 100, true); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("write after PROT_NONE: %v, want ErrProt", err)
			}
			// Restoring rights revives the page without re-allocating it.
			must(t, sys.Mprotect(c, 100, 2, vm.ProtRead|vm.ProtWrite))
			must(t, sys.Access(c, 100, true))
		})
	}
}

func TestExecProtection(t *testing.T) {
	w := newWorld(1)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c := m0(w)
	must(t, as.Mmap(c, 100, 1, vm.MapOpts{Prot: vm.ProtRead}))
	if err := as.Fetch(c, 100); !errors.Is(err, vm.ErrProt) {
		t.Fatalf("fetch from non-exec mapping: %v, want ErrProt", err)
	}
	must(t, as.Mmap(c, 200, 1, vm.MapOpts{Prot: vm.ProtRead | vm.ProtExec}))
	must(t, as.Fetch(c, 200))
	// The cached translation carries the exec bit; repeat fetches hit.
	faults := c.Stats().PageFaults
	must(t, as.Fetch(c, 200))
	if c.Stats().PageFaults != faults {
		t.Fatal("second fetch faulted despite cached exec translation")
	}
	if err := as.Fetch(c, 999); !errors.Is(err, vm.ErrSegv) {
		t.Fatalf("fetch from unmapped page: %v, want ErrSegv", err)
	}
}

// TestMprotectSemantics covers the new syscall on all three systems:
// revoked rights take effect immediately (including on other cores, via
// shootdown), granted rights come back lazily, and holes report ErrSegv.
func TestMprotectSemantics(t *testing.T) {
	for i := range systems(newWorld(2)) {
		w := newWorld(2)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			c0, c1 := w.m.CPU(0), w.m.CPU(1)
			must(t, sys.Mmap(c0, 100, 4, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
			for vpn := uint64(100); vpn < 104; vpn++ {
				must(t, sys.Access(c0, vpn, true))
				must(t, sys.Access(c1, vpn, true))
			}
			// Revoke write on c0; c1's cached writable translations must
			// be gone before Mprotect returns.
			must(t, sys.Mprotect(c0, 100, 4, vm.ProtRead))
			if err := sys.Access(c1, 102, true); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("write through stale translation after mprotect: %v, want ErrProt", err)
			}
			if err := sys.Access(c1, 102, false); err != nil {
				t.Fatalf("read after write-revoke: %v", err)
			}
			// Restore write: both cores recover lazily via prot faults.
			must(t, sys.Mprotect(c0, 100, 4, vm.ProtRead|vm.ProtWrite))
			must(t, sys.Access(c0, 101, true))
			must(t, sys.Access(c1, 101, true))
			// Partial ranges split metadata correctly.
			must(t, sys.Mprotect(c0, 101, 2, vm.ProtRead))
			must(t, sys.Access(c0, 100, true))
			if err := sys.Access(c0, 102, true); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("write inside downgraded split: %v, want ErrProt", err)
			}
			must(t, sys.Access(c0, 103, true))
			// A hole in the range reports ErrSegv.
			if err := sys.Mprotect(c0, 100, 50, vm.ProtRead); !errors.Is(err, vm.ErrSegv) {
				t.Fatalf("mprotect across a hole: %v, want ErrSegv", err)
			}
			// Zero-length is a range error.
			if err := sys.Mprotect(c0, 100, 0, vm.ProtRead); !errors.Is(err, vm.ErrRange) {
				t.Fatalf("zero-length mprotect: %v, want ErrRange", err)
			}
		})
	}
}

// TestMprotectTargetedShootdown mirrors the munmap IPI accounting test for
// the write-protect path: revoking rights on a region only the caller
// touched sends no IPIs; with a second core holding translations, exactly
// one.
func TestMprotectTargetedShootdown(t *testing.T) {
	w := newWorld(4)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c0, c1 := w.m.CPU(0), w.m.CPU(1)
	must(t, as.Mmap(c0, 100, 4, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for vpn := uint64(100); vpn < 104; vpn++ {
		must(t, as.Access(c0, vpn, true))
	}
	must(t, as.Mprotect(c0, 100, 4, vm.ProtRead))
	if got := c0.Stats().IPIsSent; got != 0 {
		t.Fatalf("local-only mprotect sent %d IPIs, want 0", got)
	}
	must(t, as.Mprotect(c0, 100, 4, vm.ProtRead|vm.ProtWrite))
	must(t, as.Access(c1, 100, true))
	must(t, as.Mprotect(c0, 100, 4, vm.ProtRead))
	if got := c0.Stats().IPIsSent; got != 1 {
		t.Fatalf("two-core mprotect sent %d IPIs, want exactly 1", got)
	}
	// Upgrades are lazy: no shootdown at all.
	before := c0.Stats().IPIsSent
	must(t, as.Mprotect(c0, 100, 4, vm.ProtRead|vm.ProtWrite))
	if got := c0.Stats().IPIsSent - before; got != 0 {
		t.Fatalf("rights-granting mprotect sent %d IPIs, want 0", got)
	}
}

// TestSharedMMUWalkStaleTLB is the satellite regression for the Figure 9
// ablation path: a core whose access was satisfied by a hardware walk of
// the shared page table caches a TLB entry without appearing in the
// mapping's TLBCores set. A later munmap must still invalidate that
// translation (the shared MMU broadcasts to the active set, and the
// walk+insert revalidates against the table), or the core reads freed
// memory through a stale TLB entry.
func TestSharedMMUWalkStaleTLB(t *testing.T) {
	w := newWorld(2)
	as := vm.New(w.m, w.rc, w.alloc, vm.NewSharedMMU(w.m))
	c0, c1 := w.m.CPU(0), w.m.CPU(1)
	must(t, as.Mmap(c0, 100, 2, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	must(t, as.Access(c0, 100, true)) // c0 faults the page in
	// c1's access walks the shared table: TLB entry, no fault, and no
	// entry in the mapping's TLBCores.
	faults := c1.Stats().PageFaults
	must(t, as.Access(c1, 100, false))
	if c1.Stats().PageFaults != faults {
		t.Fatal("setup broken: c1's access faulted instead of walking")
	}
	if _, ok := as.MMU().TLB(1).Lookup(100); !ok {
		t.Fatal("setup broken: walk did not insert into c1's TLB")
	}
	must(t, as.Munmap(c0, 100, 2))
	// The walk-filled translation must be gone from c1's TLB...
	if _, ok := as.MMU().TLB(1).Lookup(100); ok {
		t.Fatal("stale TLB entry survived munmap on the shared-MMU walk path")
	}
	// ...and the access must fault cleanly.
	if err := as.Access(c1, 100, false); !errors.Is(err, vm.ErrSegv) {
		t.Fatalf("access after munmap: %v, want ErrSegv", err)
	}
}

// TestGangMunmapVsPageFaultRace drives the §3.4 munmap-vs-pagefault race
// with a gang of 4 cores: one core cycles mmap/munmap over a region while
// three others hammer accesses into it. An access may succeed or report
// ErrSegv/ErrProt ("the munmap got the lock first") but must never wedge,
// corrupt metadata, or leak frames. Run under -race this also exercises
// the carrier-recycling and walk-revalidation orderings.
func TestGangMunmapVsPageFaultRace(t *testing.T) {
	const ncores = 4
	const lo, npages = uint64(5000), uint64(8)
	for i := range systems(newWorld(ncores)) {
		w := newWorld(ncores)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			hw.RunGang(w.m, ncores, func(c *hw.CPU, g *hw.Gang) {
				if c.ID() == 0 {
					for k := 0; k < 60; k++ {
						mustT(t, sys.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
						for v := lo; v < lo+npages; v += 2 {
							mustT(t, sys.Access(c, v, true))
						}
						mustT(t, sys.Munmap(c, lo, npages))
						w.rc.Maintain(c)
						g.Sync(c)
					}
					return
				}
				for k := 0; k < 120; k++ {
					v := lo + uint64(k)%npages
					if err := sys.Access(c, v, k%2 == 0); err != nil &&
						!errors.Is(err, vm.ErrSegv) && !errors.Is(err, vm.ErrProt) {
						t.Errorf("core %d: unexpected access error: %v", c.ID(), err)
						return
					}
					w.rc.Maintain(c)
					g.Sync(c)
				}
			})
			if t.Failed() {
				return
			}
			// Post-conditions: the range is unmapped everywhere and no
			// frame leaked.
			for id := 0; id < ncores; id++ {
				if err := sys.Access(w.m.CPU(id), lo+3, false); !errors.Is(err, vm.ErrSegv) {
					t.Fatalf("core %d: post-race access = %v, want ErrSegv", id, err)
				}
			}
			w.quiesce()
			if live := w.alloc.Live(); live != 0 {
				t.Fatalf("%d frames leaked in the race", live)
			}
		})
	}
}

func mustT(t *testing.T, err error) {
	if err != nil {
		t.Error(err)
	}
}

// TestGangMprotectVsFaultRace races mprotect cycling against concurrent
// accesses on a region that stays mapped throughout: a read may race a
// revoke (ErrProt if the fault handler sees PROT_NONE-ward transitions —
// here rights never drop below read, so reads must always succeed) and a
// write may legitimately see either outcome, but NEITHER may ever report
// ErrSegv — the region is never unmapped, so a segv means the metadata
// publication transiently uncovered a mapped page (the Bonsai
// delete-then-insert window) or an upgrade resurrected dead state.
func TestGangMprotectVsFaultRace(t *testing.T) {
	const ncores = 4
	const lo, npages = uint64(7000), uint64(8)
	for i := range systems(newWorld(ncores)) {
		w := newWorld(ncores)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			must(t, sys.Mmap(w.m.CPU(0), lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
			hw.RunGang(w.m, ncores, func(c *hw.CPU, g *hw.Gang) {
				if c.ID() == 0 {
					for k := 0; k < 80; k++ {
						mustT(t, sys.Mprotect(c, lo, npages, vm.ProtRead))
						mustT(t, sys.Mprotect(c, lo, npages, vm.ProtRead|vm.ProtWrite))
						w.rc.Maintain(c)
						g.Sync(c)
					}
					return
				}
				for k := 0; k < 160; k++ {
					v := lo + uint64(k)%npages
					write := k%2 == 0
					err := sys.Access(c, v, write)
					if errors.Is(err, vm.ErrSegv) {
						t.Errorf("core %d: spurious ErrSegv on a mapped page (write=%v)", c.ID(), write)
						return
					}
					if err != nil && (!write || !errors.Is(err, vm.ErrProt)) {
						t.Errorf("core %d: unexpected error: %v (write=%v)", c.ID(), err, write)
						return
					}
					w.rc.Maintain(c)
					g.Sync(c)
				}
			})
			if t.Failed() {
				return
			}
			// Post-race: rights ended read-write; everyone can write.
			for id := 0; id < ncores; id++ {
				must(t, sys.Access(w.m.CPU(id), lo+1, true))
			}
		})
	}
}

// TestMmapMunmapCycleZeroAlloc locks down the tentpole acceptance
// criterion: with the per-CPU Mapping template cache and the radix value
// carriers, the steady-state Mmap+Munmap cycle performs zero heap
// allocations — metadata templates, per-entry clones, and slot states all
// come from per-CPU recycled storage.
func TestMmapMunmapCycleZeroAlloc(t *testing.T) {
	w := newWorld(1)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c := w.m.CPU(0)
	const lo, npages = uint64(1 << 22), uint64(4)
	// Warm: build the leaf, prime the range carrier and carrier pool.
	for k := 0; k < 3; k++ {
		if err := as.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}); err != nil {
			t.Fatal(err)
		}
		if err := as.Munmap(c, lo, npages); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(400, func() {
		if err := as.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}); err != nil {
			t.Fatal(err)
		}
		if err := as.Munmap(c, lo, npages); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("mmap/munmap cycle = %v allocs/op, want 0", got)
	}
	// A cycle that faults pages in between stays allocation-free too
	// (the fault path was already 0 allocs/op; the halves must compose).
	// Quiescing per iteration lets the freed frames recycle through the
	// allocator's pools; an anchor mapping in the same leaf keeps the
	// node alive across the quiesce so no node churn is measured either.
	if err := as.Mmap(c, lo+npages, 1, vm.MapOpts{Prot: vm.ProtRead}); err != nil {
		t.Fatal(err)
	}
	faultCycle := func() {
		if err := as.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}); err != nil {
			t.Fatal(err)
		}
		for v := lo; v < lo+npages; v++ {
			if err := as.PageFault(c, v, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := as.Munmap(c, lo, npages); err != nil {
			t.Fatal(err)
		}
		w.quiesce()
	}
	faultCycle() // warm: prime the frame free lists
	got = testing.AllocsPerRun(100, faultCycle)
	if got != 0 {
		t.Errorf("mmap/fault/munmap cycle = %v allocs/op, want 0", got)
	}
}

// TestMprotectCycleZeroAlloc extends the criterion to the new syscall: the
// steady-state mprotect cycle (revoke, then restore) allocates nothing
// either — its metadata updates happen in place under the range locks.
func TestMprotectCycleZeroAlloc(t *testing.T) {
	w := newWorld(1)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c := w.m.CPU(0)
	const lo, npages = uint64(1 << 23), uint64(4)
	if err := as.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}); err != nil {
		t.Fatal(err)
	}
	for v := lo; v < lo+npages; v++ {
		if err := as.PageFault(c, v, true); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3; k++ { // warm the lock carriers
		must(t, as.Mprotect(c, lo, npages, vm.ProtRead))
		must(t, as.Mprotect(c, lo, npages, vm.ProtRead|vm.ProtWrite))
	}
	got := testing.AllocsPerRun(300, func() {
		if err := as.Mprotect(c, lo, npages, vm.ProtRead); err != nil {
			t.Fatal(err)
		}
		if err := as.Mprotect(c, lo, npages, vm.ProtRead|vm.ProtWrite); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("mprotect cycle = %v allocs/op, want 0", got)
	}
}

// TestPageFaultPathZeroAlloc locks down the full fill-fault path — trap,
// metadata lock, frame handling, per-core page table fill, TLB insert,
// shootdown-set update — at zero heap allocations. With the frame's
// refcache Obj embedded (refcache.InitObj) and the radix slot state reused
// on unchanged values, nothing on the steady-state fault path allocates.
func TestPageFaultPathZeroAlloc(t *testing.T) {
	w := newWorld(1)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c := w.m.CPU(0)
	const lo, npages = uint64(1 << 20), uint64(16)
	if err := as.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}); err != nil {
		t.Fatal(err)
	}
	// First faults: expand leaves, allocate frames, build the page table.
	for p := lo; p < lo+npages; p++ {
		if err := as.PageFault(c, p, true); err != nil {
			t.Fatal(err)
		}
	}
	vpn := lo
	got := testing.AllocsPerRun(300, func() {
		if err := as.PageFault(c, vpn, true); err != nil {
			t.Fatal(err)
		}
		vpn = lo + (vpn+1)%npages
	})
	if got != 0 {
		t.Errorf("fill-fault path = %v allocs/op, want 0", got)
	}
}

// TestFaultAfterRecycleZeroAlloc covers the other fault flavor: a fault
// that allocates a physical frame. Once the frame free lists are warm,
// allocating a recycled frame reinitializes its embedded Obj in place and
// the whole fault allocates nothing.
func TestFaultAfterRecycleZeroAlloc(t *testing.T) {
	w := newWorld(1)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c := w.m.CPU(0)
	const lo = uint64(1 << 21)
	if err := as.Mmap(c, lo, 8, vm.MapOpts{Prot: vm.ProtWrite}); err != nil {
		t.Fatal(err)
	}
	fault := func() {
		if err := as.PageFault(c, lo, true); err != nil {
			t.Fatal(err)
		}
		if err := as.Munmap(c, lo, 1); err != nil {
			t.Fatal(err)
		}
		if err := as.Mmap(c, lo, 1, vm.MapOpts{Prot: vm.ProtWrite}); err != nil {
			t.Fatal(err)
		}
		w.quiesce() // frame back on the free list, nodes back in pools
	}
	fault() // warm: leaf exists, free list primed, page table built
	// The mmap/munmap halves of the cycle allocate (range carriers aside,
	// each Mmap clones fresh metadata); measure the fault in isolation by
	// subtracting the cycle without it.
	base := testing.AllocsPerRun(100, func() {
		if err := as.Munmap(c, lo, 1); err != nil {
			t.Fatal(err)
		}
		if err := as.Mmap(c, lo, 1, vm.MapOpts{Prot: vm.ProtWrite}); err != nil {
			t.Fatal(err)
		}
		w.quiesce()
	})
	withFault := testing.AllocsPerRun(100, func() { fault() })
	if delta := withFault - base; delta > 0 {
		t.Errorf("frame-allocating fault adds %v allocs/op over the bare mmap cycle, want 0 (cycle %v, with fault %v)",
			delta, base, withFault)
	}
}

// TestActiveSetNotesUnion: eight goroutines note overlapping core IDs at once,
// and the set afterwards holds exactly their union. Note's check-then-Or may
// skip an Or only for a bit already set, never lose one another goroutine set
// in the same word.
func TestActiveSetNotesUnion(t *testing.T) {
	noted := func(g, id int) bool { return id%(g+2) == 0 || id/16 == g }
	var want hw.CoreSet
	for id := 0; id < hw.MaxCores; id++ {
		for g := 0; g < 8; g++ {
			if noted(g, id) {
				want.Add(id)
			}
		}
	}
	for trial := 0; trial < 100; trial++ {
		var a vm.ActiveSet
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for id := 0; id < hw.MaxCores; id++ {
					if noted(g, id) {
						a.Note(id)
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := a.Get(); got != want {
			t.Fatalf("trial %d: active set %s after concurrent Notes, want the union %s", trial, got.String(), want.String())
		}
	}
}
