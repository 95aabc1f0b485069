package vm_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/pagetable"
	"radixvm/internal/vm"
)

// Host-cost guards for the spawn path: fork, first touches, exit must cost
// the simulator what the child's address space holds, not what the machine
// has cores.

// allCores returns the set of every core of w's machine.
func allCores(w *world) hw.CoreSet {
	var s hw.CoreSet
	for i := 0; i < w.m.NCores(); i++ {
		s.Add(i)
	}
	return s
}

// foldMail lets every core take the interrupts mailed to it, as running
// cores do, so the mailboxes reuse their storage.
func foldMail(w *world, now uint64) {
	for i := 0; i < w.m.NCores(); i++ {
		w.m.CPU(i).AdvanceTo(now)
	}
}

// TestResetWithoutTranslationsAllocatesNothing: a lazy fork resets the
// parent's MMU and an exit the child's; cores that hold no table — after the
// first fork, all of a template's — are neither interrupted nor flushed, and
// the scan that finds that out allocates nothing and builds no per-core slot
// for cores that never ran the space (each used to get a fresh
// 1536-entry map, ~2.4 MB per fork at 64 cores). A Reset after k other cores
// filled interrupts exactly those k, and the one after it nobody again.
func TestResetWithoutTranslationsAllocatesNothing(t *testing.T) {
	w := newWorld(64)
	c := m0(w)
	mmu := vm.NewPerCoreMMU(w.m)
	active := allCores(w)
	foldMail(w, c.Now())
	sent := c.Stats().IPIsSent
	const runs = 50
	reset := func() {
		mmu.Reset(c, active)
		foldMail(w, c.Now())
	}
	if allocs := testing.AllocsPerRun(runs, reset); allocs != 0 {
		t.Errorf("Reset of an MMU holding nothing: %v allocs, want 0", allocs)
	}
	if got := c.Stats().IPIsSent - sent; got != 0 {
		t.Errorf("Reset sent %d IPIs over %d calls with no holder, want 0", got, runs+1)
	}
	if got := mmu.SlotsBuilt(); got != 0 {
		t.Fatalf("Reset of an MMU holding nothing built %d per-core slots, want 0", got)
	}
	holders := []int{3, 17, 40, 63}
	for _, id := range holders {
		mmu.Fill(w.m.CPU(id), 100, 7, pagetable.PermR)
	}
	for _, want := range []uint64{uint64(len(holders)), 0} {
		sent = c.Stats().IPIsSent
		reset()
		if got := c.Stats().IPIsSent - sent; got != want {
			t.Errorf("Reset sent %d IPIs, want %d (%d cores filled before the first of the two)", got, want, len(holders))
		}
	}
	for _, id := range holders {
		if got := mmu.TLB(id).FullFlushes; got != 1 {
			t.Errorf("holder core %d counted %d full flushes, want 1", id, got)
		}
		if _, ok := mmu.TLB(id).Lookup(100); ok {
			t.Errorf("holder core %d still caches its translation after Reset", id)
		}
	}
}

// spawnBytes returns the Go heap bytes one fork → 32 COW touches → exit
// cycle allocates on an ncores machine whose template, of tmplPages written
// pages, ran on every core.
func spawnBytes(t *testing.T, ncores int, tmplPages uint64) uint64 {
	const lo, npages = uint64(1 << 20), uint64(32)
	w := newWorld(ncores)
	tmpl := vm.New(w.m, w.rc, w.alloc, nil)
	c := m0(w)
	must(t, tmpl.Mmap(c, lo, tmplPages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for v := lo; v < lo+tmplPages; v++ {
		must(t, tmpl.Access(c, v, true))
	}
	for i := 1; i < ncores; i++ {
		must(t, tmpl.Access(w.m.CPU(i), lo, false))
	}
	cycle := func() {
		child, err := tmpl.Fork(c)
		must(t, err)
		for v := lo; v < lo+npages; v++ {
			must(t, child.Access(c, v, true))
		}
		exit(c, child)
		w.rc.FlushAll() // frames and nodes the child dropped recycle
		foldMail(w, c.Now())
	}
	for i := 0; i < 8; i++ {
		cycle() // warm the frame free lists, node pools and mailboxes
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The least of three windows: about one `go test` run in 40 picks up
	// ~5 KB more in one window on 64 cores (~160 B a cycle), which the 1 KB
	// core-count margin cannot absorb.
	const cycles = 32
	best := ^uint64(0)
	for k := 0; k < 3; k++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/cycles)
	}
	return best
}

// TestSpawnBytesIndependentOfCoreCount: the same spawn on a 64-core machine
// may allocate less than 1 KB more than on an 8-core one — the per-core slot
// pointers of the child's MMU and tree are the part that still scales. It
// used to grow by one ~37 KB map per active core per fork. The guard was a
// ratio (64-core <= 1.25 x 8-core; 36 136 and 41 256 B then) until page-table
// nodes were stored by touched line, which halved the part both machines
// share (16 648 and 21 768 B, ~5 KB apart: the child's MMU held a TLB slot for
// every core). A ratio punishes shrinking its denominator, so the ceilings
// are absolute. Now that a child builds MMU slots only on the cores it runs on
// and borrows its family's Range carrier, it is 15 304 and 16 200 B.
func TestSpawnBytesIndependentOfCoreCount(t *testing.T) {
	small, large := spawnBytes(t, 8, 32), spawnBytes(t, 64, 32)
	t.Logf("fork + 32 COW touches + exit: %d B at 8 cores, %d B at 64 cores", small, large)
	if small > 16<<10 {
		t.Errorf("spawn allocates %d B at 8 cores, want <= 16 KB", small)
	}
	if large > 17<<10 {
		t.Errorf("spawn allocates %d B at 64 cores, want <= 17 KB", large)
	}
	if large > small+1<<10 {
		t.Errorf("spawn allocates %d B at 64 cores against %d B at 8 cores: more than 1 KB apart", large, small)
	}
}

// TestSpawnBytesIndependentOfTemplateSize: the same spawn off a template of
// 8 192 pages — sixteen full leaves, of which the child touches a sixteenth
// of one — may allocate only a few KB more than off a template of 32: the
// longer path is not there, the leaf copy's directory of 128 entries is. A
// copy used to mirror all 128 slot groups of its leaf into storage of its
// own, whatever its owner went on to touch: 17 296 B off 32 pages, 87 248 B
// off 512 and 89 000 B off 8 192.
func TestSpawnBytesIndependentOfTemplateSize(t *testing.T) {
	small, leaf, large := spawnBytes(t, 8, 32), spawnBytes(t, 8, 512), spawnBytes(t, 8, 8192)
	t.Logf("fork + 32 COW touches + exit at 8 cores: %d B off a 32-page template, %d B off a 512-page one, %d B off an 8192-page one", small, leaf, large)
	if large > 24<<10 {
		t.Errorf("spawn off an 8192-page template allocates %d B, want <= 24 KB", large)
	}
	if large > small+4<<10 {
		t.Errorf("spawn allocates %d B off 8192 template pages against %d B off 32: more than 4 KB apart", large, small)
	}
}

// TestTLBHitAccessAllocatesNothing: the hardware half of an access is one
// function for all three systems and takes the system's fault handler as a
// plain func parameter; a hit must not make that a heap closure.
func TestTLBHitAccessAllocatesNothing(t *testing.T) {
	w := newWorld(2)
	c := m0(w)
	for _, sys := range systems(w) {
		must(t, sys.Mmap(c, 100, 1, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
		must(t, sys.Access(c, 100, true))
		if allocs := testing.AllocsPerRun(100, func() { _ = sys.Access(c, 100, true) }); allocs != 0 {
			t.Errorf("%s: TLB-hit Access: %v allocs, want 0", sys.Name(), allocs)
		}
	}
}

// TestBaselineMapTouchUnmapAllocs holds the baselines' mmap + first touch +
// munmap cycle to what it allocated when each had its own copy of the
// skeleton (4 and 10 on this cycle: the region, its tree node or copied
// path, the gather lists): handing callbacks to the index through an
// interface must not add a heap closure per call.
func TestBaselineMapTouchUnmapAllocs(t *testing.T) {
	limit := map[string]float64{"linux": 4, "bonsai": 10}
	w := newWorld(2)
	c := m0(w)
	for _, sys := range systems(w)[1:] {
		for i := uint64(0); i < 8; i++ { // siblings, so the index has depth
			must(t, sys.Mmap(c, 1000+16*i, 4, vm.MapOpts{Prot: vm.ProtRead}))
		}
		cycle := func() {
			must(t, sys.Mmap(c, 100, 1, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
			must(t, sys.Access(c, 100, true))
			must(t, sys.Munmap(c, 100, 1))
			w.rc.FlushAll() // the frame recycles
		}
		for i := 0; i < 8; i++ {
			cycle() // warm the frame free list and the page table
		}
		allocs := testing.AllocsPerRun(100, cycle)
		t.Logf("%s: %v allocs per mmap+touch+munmap", sys.Name(), allocs)
		if allocs > limit[sys.Name()] {
			t.Errorf("%s: mmap+touch+munmap: %v allocs, want <= %v", sys.Name(), allocs, limit[sys.Name()])
		}
	}
}
