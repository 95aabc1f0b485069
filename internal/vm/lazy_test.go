package vm_test

import (
	"errors"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// lazySpace builds a radixvm address space in lazy-fork mode.
func lazySpace(w *world) *vm.AddressSpace {
	as := vm.New(w.m, w.rc, w.alloc, nil)
	as.SetForkEager(false)
	return as
}

// exit tears a space down through the Exiter fast path, which every
// radixvm address space implements.
func exit(c *hw.CPU, sys vm.System) {
	sys.(vm.Exiter).Exit(c)
}

// TestLazyForkCOWSemantics is TestForkCOWSemantics for the generation
// fork: identical sharing behavior — reads share, first write copies
// exactly once per side, repeats copy nothing, no stale writable
// translation survives the fork — with teardown through Exit instead of
// an O(space) munmap sweep.
func TestLazyForkCOWSemantics(t *testing.T) {
	const lo, npages = uint64(100), uint64(4)
	w := newWorld(2)
	sys := lazySpace(w)
	c := m0(w)
	must(t, sys.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for v := lo; v < lo+npages; v++ {
		must(t, sys.Access(c, v, true))
	}
	base := w.alloc.Created()
	childSys, err := sys.Fork(c)
	must(t, err)
	if childSys.(*vm.AddressSpace).ForkEager() {
		t.Fatal("lazy fork's child reverted to eager mode")
	}
	// Reads share: no frames materialize.
	for v := lo; v < lo+npages; v++ {
		must(t, childSys.Access(c, v, false))
	}
	if got := w.alloc.Created() - base; got != 0 {
		t.Fatalf("child reads created %d frames, want 0 (COW shares)", got)
	}
	// First child write of each page copies exactly once; repeats copy
	// nothing.
	for v := lo; v < lo+npages; v++ {
		must(t, childSys.Access(c, v, true))
		must(t, childSys.Access(c, v, true))
	}
	if got := w.alloc.Created() - base; got != int64(npages) {
		t.Fatalf("child writes created %d frames, want %d (one copy per page)", got, npages)
	}
	// The parent's pre-fork writable translations are gone (the wholesale
	// invalidation): its next write must trap, not sail through.
	faultsBefore := c.Stats().ProtFaults + c.Stats().PageFaults
	must(t, sys.Access(c, lo, true))
	if c.Stats().ProtFaults+c.Stats().PageFaults == faultsBefore {
		t.Fatal("parent write after lazy fork used a stale writable translation")
	}
	// The child privatized everything, so the parent owns its pages: its
	// writes copy nothing at all.
	base = w.alloc.Created()
	for v := lo; v < lo+npages; v++ {
		must(t, sys.Access(c, v, true))
	}
	if got := w.alloc.Created() - base; got != 0 {
		t.Fatalf("parent (sole owner) writes copied %d frames, want 0", got)
	}
	// Teardown through Exit on both sides: nothing leaks.
	exit(c, childSys)
	exit(c, sys)
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked after parent+child Exit", live)
	}
}

// TestLazyForkCopiesFrameContents: the data half of a COW break still
// holds under deferred COW arming — the child's copy carries the parent's
// bytes, later parent writes stay invisible.
func TestLazyForkCopiesFrameContents(t *testing.T) {
	w := newWorld(1)
	as := lazySpace(w)
	c := m0(w)
	must(t, as.Mmap(c, 100, 1, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	must(t, as.Access(c, 100, true))
	pm := as.Lookup(c, 100)
	pm.Frame.Data()[0] = 0xAB
	childSys, err := as.Fork(c)
	must(t, err)
	child := childSys.(*vm.AddressSpace)
	must(t, child.Access(c, 100, true)) // diverge + COW break
	cm := child.Lookup(c, 100)
	pm = as.Lookup(c, 100)
	if cm.Frame == pm.Frame {
		t.Fatal("child still maps the parent's frame after its write")
	}
	if got := cm.Frame.Data()[0]; got != 0xAB {
		t.Fatalf("child copy byte = %#x, want 0xAB (contents not copied)", got)
	}
	pm.Frame.Data()[0] = 0xCD
	if got := cm.Frame.Data()[0]; got != 0xAB {
		t.Fatalf("parent write leaked into child copy: %#x", got)
	}
}

// TestLazyForkSharesFileMappings: file-backed pages stay page-cache-shared
// across a lazy fork, exactly as across an eager one.
func TestLazyForkSharesFileMappings(t *testing.T) {
	w := newWorld(1)
	sys := lazySpace(w)
	f := vm.NewFile(w.alloc)
	c := m0(w)
	must(t, sys.Mmap(c, 500, 2, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite, File: f}))
	must(t, sys.Access(c, 500, true))
	childSys, err := sys.Fork(c)
	must(t, err)
	must(t, childSys.Access(c, 500, true)) // a write, not a COW break
	must(t, childSys.Access(c, 501, true)) // child faults the file page itself
	if created := w.alloc.Created(); created != 2 {
		t.Fatalf("%d frames created, want 2 (file pages stay shared)", created)
	}
	exit(c, childSys)
	exit(c, sys)
	w.quiesce()
	if live := w.alloc.Live(); live != 2 {
		t.Fatalf("live = %d after both exits, want 2 (page cache refs)", live)
	}
}

// TestLazyForkIsO1VirtualTime: the tentpole property at the VM level — on
// a large warmed parent, the lazy Fork call returns an order of magnitude
// cheaper in virtual time than the eager sweep, because the per-node copy
// and COW-arming work moved to first divergence.
func TestLazyForkIsO1VirtualTime(t *testing.T) {
	const lo, npages = uint64(0), uint64(1 << 13) // 8k faulted pages, 16 leaf nodes
	warm := func(as *vm.AddressSpace, c *hw.CPU, tt *testing.T) {
		mustT(tt, as.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
		for v := lo; v < lo+npages; v++ {
			mustT(tt, as.Access(c, v, true))
		}
	}
	wE := newWorld(1)
	eagerAS := vm.New(wE.m, wE.rc, wE.alloc, nil)
	cE := m0(wE)
	warm(eagerAS, cE, t)
	before := cE.Now()
	_, err := eagerAS.Fork(cE)
	must(t, err)
	eager := cE.Now() - before

	wL := newWorld(1)
	lazyAS := lazySpace(wL)
	cL := m0(wL)
	warm(lazyAS, cL, t)
	before = cL.Now()
	_, err = lazyAS.Fork(cL)
	must(t, err)
	lazy := cL.Now() - before

	if lazy*10 > eager {
		t.Fatalf("lazy fork cost %d cycles on a %d-page parent, eager %d: want >= 10x cheaper", lazy, npages, eager)
	}
}

// TestLazyForkSharedMMUFallback: requesting lazy mode on a shared-table
// space silently falls back to the eager sweep (the stale-writable-PTE
// window documented in Fork) but must stay correct: isolation, COW copies,
// and teardown all behave.
func TestLazyForkSharedMMUFallback(t *testing.T) {
	w := newWorld(2)
	as := vm.New(w.m, w.rc, w.alloc, vm.NewSharedMMU(w.m))
	as.SetForkEager(false)
	c := m0(w)
	must(t, as.Mmap(c, 100, 2, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	must(t, as.Access(c, 100, true))
	childSys, err := as.Fork(c)
	must(t, err)
	base := w.alloc.Created()
	must(t, childSys.Access(c, 100, true))
	if got := w.alloc.Created() - base; got != 1 {
		t.Fatalf("child COW write created %d frames, want 1", got)
	}
	child := childSys.(*vm.AddressSpace)
	cm, pm := child.Lookup(c, 100), as.Lookup(c, 100)
	if cm.Frame == pm.Frame {
		t.Fatal("shared-MMU fallback: child write did not privatize the frame")
	}
	exit(c, childSys)
	exit(c, as)
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked", live)
	}
}

// TestExitEagerSpace: Exit is not lazy-mode-only — an eager, even
// never-forked space tears down through the same release hooks with zero
// frame leaks.
func TestExitEagerSpace(t *testing.T) {
	w := newWorld(1)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c := m0(w)
	must(t, as.Mmap(c, 100, 8, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for v := uint64(100); v < 108; v++ {
		must(t, as.Access(c, v, true))
	}
	// An eager fork family: parent exits, child survives with its COW
	// shares intact, then exits too.
	childSys, err := as.Fork(c)
	must(t, err)
	exit(c, as)
	for v := uint64(100); v < 108; v++ {
		must(t, childSys.Access(c, v, true))
	}
	exit(c, childSys)
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked after Exits", live)
	}
}

// TestLazyGangForkVsConcurrentWrite is TestGangForkVsConcurrentWrite in
// lazy mode: repeated generation forks race parent writes from the other
// gang members. Every access must succeed, every child must be internally
// consistent (the fault-path epoch validation covers the invalidation
// race), and after all children exit nothing leaks.
func TestLazyGangForkVsConcurrentWrite(t *testing.T) {
	const ncores = 4
	const lo, npages = uint64(3000), uint64(8)
	w := newWorld(ncores)
	sys := lazySpace(w)
	must(t, sys.Mmap(m0(w), lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	children := make([]vm.System, 0, 20)
	hw.RunGang(w.m, ncores, 2000, func(c *hw.CPU, g *hw.Gang) {
		if c.ID() == 0 {
			for k := 0; k < 20; k++ {
				ch, err := sys.Fork(c)
				if err != nil {
					t.Errorf("fork %d: %v", k, err)
					return
				}
				children = append(children, ch)
				w.rc.Maintain(c)
				g.Sync(c)
			}
			return
		}
		for k := 0; k < 60; k++ {
			v := lo + uint64(k)%npages
			if err := sys.Access(c, v, true); err != nil {
				t.Errorf("core %d: parent write during lazy fork: %v", c.ID(), err)
				return
			}
			w.rc.Maintain(c)
			g.Sync(c)
		}
	})
	if t.Failed() {
		return
	}
	c := m0(w)
	for _, ch := range children {
		for v := lo; v < lo+npages; v++ {
			must(t, ch.Access(c, v, true))
		}
		exit(c, ch)
	}
	exit(c, sys)
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked across %d lazy forks", live, len(children))
	}
}

// TestLazyGangCOWFaultVsMunmap races COW breaks in a lazy child against a
// concurrent munmap of the child's range: an access may succeed or report
// ErrSegv, never anything else, and no frame may leak.
func TestLazyGangCOWFaultVsMunmap(t *testing.T) {
	const ncores = 4
	const lo, npages = uint64(4000), uint64(8)
	w := newWorld(ncores)
	sys := lazySpace(w)
	c0 := m0(w)
	for round := 0; round < 10; round++ {
		must(t, sys.Mmap(c0, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
		for v := lo; v < lo+npages; v++ {
			must(t, sys.Access(c0, v, true))
		}
		childSys, err := sys.Fork(c0)
		must(t, err)
		hw.RunGang(w.m, ncores, 2000, func(c *hw.CPU, g *hw.Gang) {
			if c.ID() == 0 {
				c.Tick(uint64(500 * (round + 1)))
				mustT(t, childSys.Munmap(c, lo, npages))
				g.Sync(c)
				return
			}
			for k := 0; k < 30; k++ {
				v := lo + uint64(k)%npages
				if err := childSys.Access(c, v, true); err != nil && !errors.Is(err, vm.ErrSegv) {
					t.Errorf("core %d: COW write vs munmap: %v", c.ID(), err)
					return
				}
				w.rc.Maintain(c)
				g.Sync(c)
			}
		})
		if t.Failed() {
			return
		}
		exit(c0, childSys)
		must(t, sys.Munmap(c0, lo, npages))
		w.quiesce()
		if live := w.alloc.Live(); live != 0 {
			t.Fatalf("round %d: %d frames leaked", round, live)
		}
	}
}

// TestLazyDoubleForkChains: generation forks a few levels deep — every
// level shares until written, the deepest child's writes copy exactly
// once, and the whole family exits to zero live frames.
func TestLazyDoubleForkChains(t *testing.T) {
	const lo, npages = uint64(100), uint64(2)
	w := newWorld(1)
	sys := lazySpace(w)
	c := m0(w)
	must(t, sys.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for v := lo; v < lo+npages; v++ {
		must(t, sys.Access(c, v, true))
	}
	family := []vm.System{sys}
	cur := vm.System(sys)
	for gen := 0; gen < 3; gen++ {
		ch, err := cur.Fork(c)
		must(t, err)
		family = append(family, ch)
		cur = ch
	}
	base := w.alloc.Created()
	for _, s := range family {
		for v := lo; v < lo+npages; v++ {
			must(t, s.Access(c, v, false))
		}
	}
	if got := w.alloc.Created() - base; got != 0 {
		t.Fatalf("chain reads created %d frames, want 0", got)
	}
	for v := lo; v < lo+npages; v++ {
		must(t, cur.Access(c, v, true))
		must(t, cur.Access(c, v, true))
	}
	if got := w.alloc.Created() - base; got != int64(npages) {
		t.Fatalf("deepest child writes created %d frames, want %d", got, npages)
	}
	for _, s := range family {
		exit(c, s)
	}
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked after the lazy fork chain exited", live)
	}
}

// TestDivergedCopiesAreEqual: two children of one template touch the same
// leaf, so each gets a copy of it — from one image of what a copy of that
// leaf is born holding, where each used to mirror the leaf for itself. The
// copies must hold what mirroring gave them (the expectations below were
// checked against the commit before images, cb53c27): every mapping the
// template's, minus its cached-translation set, armed copy-on-write where it
// has an anonymous frame; equal between the two children field by field; and
// private — the page each child writes changes in that child alone. The
// divergence hook ran once per child per mapping, image or not: every shared
// anonymous frame counts three shares, and after all three spaces exit the
// only frames alive are the page cache's.
func TestDivergedCopiesAreEqual(t *testing.T) {
	const lo, npages = uint64(1 << 20), uint64(512) // one leaf
	const anon, ro, file = 64, 32, 8                // written, then read-only, then file-backed pages
	w := newWorld(2)
	tmpl := lazySpace(w)
	c := m0(w)
	f := vm.NewFile(w.alloc)
	must(t, tmpl.Mmap(c, lo, npages-file, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	must(t, tmpl.Mmap(c, lo+npages-file, file, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite, File: f}))
	for v := lo; v < lo+anon+ro; v++ {
		must(t, tmpl.Access(c, v, true))
	}
	must(t, tmpl.Access(w.m.CPU(1), lo+1, false)) // a second core caches a translation
	must(t, tmpl.Mprotect(c, lo+anon, ro, vm.ProtRead))
	must(t, tmpl.Access(c, lo+npages-file, true))
	must(t, tmpl.Access(c, lo+npages-file+1, false))

	want := make([]vm.Mapping, npages)
	for i := range want {
		want[i] = *tmpl.Lookup(c, lo+uint64(i))
	}
	var kids [2]*vm.AddressSpace
	for i := range kids {
		sys, err := tmpl.Fork(c)
		must(t, err)
		kids[i] = sys.(*vm.AddressSpace)
	}
	const touched = 3
	for _, kid := range kids {
		must(t, kid.Access(c, lo+touched, true)) // copies the leaf, then breaks COW on one page
	}
	for i := uint64(0); i < npages; i++ {
		a, b, tm := kids[0].Lookup(c, lo+i), kids[1].Lookup(c, lo+i), want[i]
		if a == nil || b == nil || a == b {
			t.Fatalf("page %d: children map %p and %p, want two private mappings", i, a, b)
		}
		if i == touched {
			if a.Frame == b.Frame || a.Frame == tm.Frame || a.COW || b.COW || !a.TLBCores.Has(0) || !b.TLBCores.Has(0) {
				t.Errorf("written page: children hold %+v and %+v, want private frames, COW broken, core 0 caching", *a, *b)
			}
			continue
		}
		wantCOW := tm.Frame != nil && tm.Back.File == nil
		for _, m := range []*vm.Mapping{a, b} {
			if m.Frame != tm.Frame || m.COW != wantCOW || m.Prot != tm.Prot || m.Back != tm.Back || m.Start != tm.Start || !m.TLBCores.Empty() {
				t.Errorf("page %d: child holds %+v, want the template's %+v without cached cores, COW=%v", i, *m, tm, wantCOW)
			}
		}
		if wantCOW {
			if got := tm.Frame.COWShares(); got != 3 {
				t.Errorf("page %d: frame counts %d COW shares, want 3 (the template's mapping and two copies)", i, got)
			}
		}
	}
	for _, kid := range kids {
		exit(c, kid)
	}
	exit(c, tmpl)
	w.quiesce()
	if live := w.alloc.Live(); live != 2 {
		t.Fatalf("%d frames alive after the children and the template exited, want 2 (the page cache's)", live)
	}
}
