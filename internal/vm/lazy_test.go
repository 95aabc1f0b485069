package vm_test

import (
	"testing"

	"radixvm/internal/counter"
	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// exit tears a space down through the Exiter fast path, which every
// radixvm address space implements.
func exit(c *hw.CPU, sys vm.System) {
	sys.(vm.Exiter).Exit(c)
}

// TestLazyForkIsO1VirtualTime: the Fork call costs the same virtual time on
// a warmed parent of one leaf node and of sixteen, because it copies the root
// and nothing else: the per-node copy and COW-arming work happens at first
// divergence.
func TestLazyForkIsO1VirtualTime(t *testing.T) {
	forkCost := func(npages uint64) uint64 {
		w := newWorld(1)
		as := vm.New(w.m, w.rc, w.alloc, nil)
		c := m0(w)
		must(t, as.Mmap(c, 0, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
		for v := uint64(0); v < npages; v++ {
			must(t, as.Access(c, v, true))
		}
		before := c.Now()
		_, err := as.Fork(c)
		must(t, err)
		return c.Now() - before
	}
	if small, large := forkCost(1<<9), forkCost(1<<13); small != large {
		t.Fatalf("fork cost %d cycles on a 512-page parent, %d on an 8192-page one: want equal", small, large)
	}
}

// TestExitNeverForkedSpace: Exit is not only a forked child's way out — a
// space that never forked tears down through the same release hooks, and so
// does a parent that exits before its child, which keeps its COW shares and
// exits later; no frame leaks either way, on either MMU.
func TestExitNeverForkedSpace(t *testing.T) {
	for _, sp := range bothMMUs() {
		t.Run(sp.name, func(t *testing.T) {
			w := newWorld(1)
			c := m0(w)
			warmed := func() vm.System {
				sys := sp.make(w)
				must(t, sys.Mmap(c, 100, 8, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
				for v := uint64(100); v < 108; v++ {
					must(t, sys.Access(c, v, true))
				}
				return sys
			}
			exit(c, warmed())
			w.quiesce()
			if live := w.alloc.Live(); live != 0 {
				t.Fatalf("%d frames leaked after a never-forked space's Exit", live)
			}
			parent := warmed()
			child, err := parent.Fork(c)
			must(t, err)
			exit(c, parent)
			for v := uint64(100); v < 108; v++ {
				must(t, child.Access(c, v, true))
			}
			exit(c, child)
			w.quiesce()
			if live := w.alloc.Live(); live != 0 {
				t.Fatalf("%d frames leaked after parent-then-child Exits", live)
			}
		})
	}
}

// TestDivergedCopiesAreEqual: two children of one template touch the same
// leaf, so each gets a copy of it — from one image of what a copy of that
// leaf is born holding, where each used to mirror the leaf for itself. The
// copies must hold what mirroring gave them (the expectations below were
// checked against the commit before images, cb53c27): every mapping the
// template's, minus its cached-translation set, armed copy-on-write where it
// has an anonymous frame, and unfaulted where it has a file's (a file frame
// enters a private mapping only through the page cache, where its space joins
// the page's holder set); equal between the two children field by field; and
// private — the page each child writes changes in that child alone. The
// divergence hook ran once per child per mapping, image or not: every shared
// anonymous frame counts three shares, and after all three spaces exit the
// only frames alive are the page cache's.
func TestDivergedCopiesAreEqual(t *testing.T) {
	const lo, npages = uint64(1 << 20), uint64(512) // one leaf
	const anon, ro, file = 64, 32, 8                // written, then read-only, then file-backed pages
	w := newWorld(2)
	tmpl := vm.New(w.m, w.rc, w.alloc, nil)
	c := m0(w)
	var ctrs []*counter.Shared // the file pages' baseline counters, as filled
	f := vm.NewFileWithCounter(w.alloc, func() counter.Counter {
		ctrs = append(ctrs, counter.NewShared(0))
		return ctrs[len(ctrs)-1]
	})
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
		wantFrame := tm.Frame
		if tm.Back.File != nil {
			wantFrame = nil
		}
		for _, m := range []*vm.Mapping{a, b} {
			if m.Frame != wantFrame || m.COW != wantCOW || m.Prot != tm.Prot || m.Back != tm.Back || m.Start != tm.Start || !m.TLBCores.Empty() {
				t.Errorf("page %d: child holds %+v, want the template's %+v without cached cores, COW=%v, frame %p", i, *m, tm, wantCOW, wantFrame)
			}
		}
		if wantCOW {
			if got := tm.Frame.COWShares(); got != 3 {
				t.Errorf("page %d: frame counts %d COW shares, want 3 (the template's mapping and two copies)", i, got)
			}
		}
	}
	for i, ctr := range ctrs {
		if got := ctr.Value(); got != 1 {
			t.Errorf("file page %d: baseline counter at %d after the children's copies, want 1 (the template's mapping: a copy holds no counter)", i, got)
		}
	}
	for _, kid := range kids {
		exit(c, kid)
	}
	exit(c, tmpl)
	for i, ctr := range ctrs {
		if got := ctr.Value(); got != 0 {
			t.Errorf("file page %d: baseline counter at %d after every space exited, want 0", i, got)
		}
	}
	w.quiesce()
	if live := w.alloc.Live(); live != 2 {
		t.Fatalf("%d frames alive after the children and the template exited, want 2 (the page cache's)", live)
	}
}
