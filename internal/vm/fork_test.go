package vm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// space is one input of a fork scenario: a system, and the way its forked
// children — and at the end the parent — leave.
type space struct {
	name string
	make func(w *world) vm.System
	exit bool // through vm.Exiter rather than by unmapping what the scenario mapped
}

// threeSystems are the three VM systems, torn down by munmap, the one way all
// of them have. On radixvm that is the expensive way out of a forked child (a
// munmap of a subtree the child still shares path-copies it first), so it is
// a different path from bothMMUs', not a repeat of it.
func threeSystems() []space {
	var out []space
	for i, s := range systems(newWorld(1)) {
		out = append(out, space{name: s.Name(), make: func(w *world) vm.System { return systems(w)[i] }})
	}
	return out
}

// bothMMUs is radixvm on each page-table design, torn down through Exit: the
// shared table takes the same generation fork as per-core tables, its Reset a
// swap of the one table where theirs is a swap per core.
func bothMMUs() []space {
	return []space{
		{"percore", func(w *world) vm.System { return vm.New(w.m, w.rc, w.alloc, nil) }, true},
		{"shared", func(w *world) vm.System { return vm.New(w.m, w.rc, w.alloc, vm.NewSharedMMU(w.m)) }, true},
	}
}

// A reaper tears sys down the way its space says: Exit, or a munmap of [lo,
// lo+npages), which is everything these scenarios map.
type reaper func(t *testing.T, c *hw.CPU, sys vm.System, lo, npages uint64)

// over runs scenario once per space as a subtest, each in a fresh world.
func over(t *testing.T, spaces []space, ncores int, scenario func(t *testing.T, w *world, sys vm.System, reap reaper)) {
	overSeeds(t, spaces, ncores, 0, scenario)
}

// overSeeds is over for a scenario that runs a gang on the explorer: each
// subtest runs it once per seed in hw.Seeds(seeds), each in a fresh world
// whose seed its RunGangs take (seeds 0: once, at seed 0).
func overSeeds(t *testing.T, spaces []space, ncores int, seeds uint64, scenario func(t *testing.T, w *world, sys vm.System, reap reaper)) {
	n := uint64(1)
	if seeds > 0 {
		n = hw.Seeds(seeds)
	}
	for _, sp := range spaces {
		t.Run(sp.name, func(t *testing.T) {
			for seed := range n {
				w := newWorld(ncores)
				w.seed = seed
				scenario(t, w, sp.make(w), func(t *testing.T, c *hw.CPU, sys vm.System, lo, npages uint64) {
					t.Helper()
					if sp.exit {
						sys.(vm.Exiter).Exit(c)
					} else {
						must(t, sys.Munmap(c, lo, npages))
					}
				})
				if t.Failed() {
					t.Fatalf("failed at seed %d", seed)
				}
			}
		})
	}
}

// The six fork scenarios, each run on the three systems under its TestFork /
// TestGang / TestDouble name and on both radixvm MMUs under its TestLazy name.

func TestForkCOWSemantics(t *testing.T)     { over(t, threeSystems(), 2, forkCOWSemantics) }
func TestLazyForkCOWSemantics(t *testing.T) { over(t, bothMMUs(), 2, forkCOWSemantics) }

func TestForkSharesFileMappings(t *testing.T)     { over(t, threeSystems(), 1, forkSharesFileMappings) }
func TestLazyForkSharesFileMappings(t *testing.T) { over(t, bothMMUs(), 1, forkSharesFileMappings) }

func TestGangForkVsConcurrentWrite(t *testing.T) {
	overSeeds(t, threeSystems(), gangCores, gangSeeds, gangForkVsConcurrentWrite)
}
func TestLazyGangForkVsConcurrentWrite(t *testing.T) {
	overSeeds(t, bothMMUs(), gangCores, gangSeeds, gangForkVsConcurrentWrite)
}

// TestGangSeedReplays: a seed of the explorer replays a gang scenario
// exactly, frames included — the same clocks, cycle meters and statistics on
// every core and the same count of frames created, run twice.
func TestGangSeedReplays(t *testing.T) {
	run := func(seed uint64) string {
		sp := bothMMUs()[1]
		w := newWorld(gangCores)
		w.seed = seed
		gangForkVsConcurrentWrite(t, w, sp.make(w), func(t *testing.T, c *hw.CPU, sys vm.System, _, _ uint64) {
			sys.(vm.Exiter).Exit(c)
		})
		var b strings.Builder
		for id := 0; id < gangCores; id++ {
			c := w.m.CPU(id)
			fmt.Fprintf(&b, "core %d: clock %d %+v %v\n", id, c.Now(), *c.Stats(), c.Cycles())
		}
		fmt.Fprintf(&b, "frames created %d, live %d", w.alloc.Created(), w.alloc.Live())
		return b.String()
	}
	for seed := range hw.Seeds(4) {
		if a, b := run(seed), run(seed); a != b {
			t.Fatalf("seed %d does not replay:\n%s\nthen\n%s", seed, a, b)
		}
	}
}

// TestLazyGangForkLeavesNoStaleTranslation is the fork's translation oracle
// (TLB ⊆ table ⊆ metadata), on both MMUs; Reset's holder scan is what it is for.
func TestLazyGangForkLeavesNoStaleTranslation(t *testing.T) {
	overSeeds(t, bothMMUs(), gangCores, gangSeeds, gangForkLeavesNoStaleTranslation)
}

func TestGangCOWFaultVsMunmap(t *testing.T) {
	overSeeds(t, threeSystems(), gangCores, gangSeeds, gangCOWFaultVsMunmap)
}
func TestLazyGangCOWFaultVsMunmap(t *testing.T) {
	overSeeds(t, bothMMUs(), gangCores, gangSeeds, gangCOWFaultVsMunmap)
}

func TestDoubleForkChains(t *testing.T)     { over(t, threeSystems(), 1, doubleForkChains) }
func TestLazyDoubleForkChains(t *testing.T) { over(t, bothMMUs(), 1, doubleForkChains) }

// TestForkCopiesFrameContents needs Lookup to see the backing frames, which
// only radixvm has, and tears nothing down: one name, both MMUs.
func TestForkCopiesFrameContents(t *testing.T) { over(t, bothMMUs(), 1, forkCopiesFrameContents) }

// TestLazyCOWBreakLeavesNoStaleTranslation is the COW break's translation
// oracle, on both MMUs; the shared table's walkers are what it is for.
func TestLazyCOWBreakLeavesNoStaleTranslation(t *testing.T) {
	over(t, bothMMUs(), 3, cowBreakLeavesNoStaleTranslation)
}

// A gang scenario runs on gangCores cores, over gangSeeds seeds of the
// explorer by default.
const gangCores, gangSeeds = 4, 16

// cowBreakLeavesNoStaleTranslation: a COW break that copies the page must
// invalidate every cached translation of the frame it copied from. On the
// shared table, core 1 caches the page by a hardware walk of the PTE core 2's
// read fault installed, so the page's TLBCores never names it.
func cowBreakLeavesNoStaleTranslation(t *testing.T, w *world, sys vm.System, reap reaper) {
	const v = uint64(3000)
	as := sys.(*vm.AddressSpace)
	c0, c1, c2 := w.m.CPU(0), w.m.CPU(1), w.m.CPU(2)
	must(t, sys.Mmap(c0, v, 1, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	must(t, sys.Access(c0, v, true))
	child, err := sys.Fork(c0)
	must(t, err)
	must(t, sys.Access(c2, v, false)) // a fault: fills the shared frame read-only
	must(t, sys.Access(c1, v, false)) // on the shared table, a walk of that PTE
	must(t, sys.Access(c2, v, true))  // breaks COW onto a copy
	want := as.Lookup(c0, v).Frame.PFN
	for id := 0; id < 3; id++ {
		if e, ok := as.MMU().TLB(id).Lookup(v); ok && e.PFN != want {
			t.Errorf("core %d caches page %d -> frame %d after the COW break moved it to frame %d", id, v, e.PFN, want)
		}
	}
	reap(t, c0, child, v, 1)
	reap(t, c0, sys, v, 1)
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked", live)
	}
}

// forkCOWSemantics drives the canonical fork lifecycle: the child shares the
// parent's faulted anonymous frames until first write, each written page is
// copied exactly once per side, repeat writes copy nothing more, and teardown
// leaks no frames.
func forkCOWSemantics(t *testing.T, w *world, sys vm.System, reap reaper) {
	const lo, npages = uint64(100), uint64(4)
	c := m0(w)
	must(t, sys.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for v := lo; v < lo+npages; v++ {
		must(t, sys.Access(c, v, true))
	}
	base := w.alloc.Created()
	childSys, err := sys.Fork(c)
	must(t, err)
	// Reads share: no frames materialize.
	for v := lo; v < lo+npages; v++ {
		must(t, childSys.Access(c, v, false))
	}
	if got := w.alloc.Created() - base; got != 0 {
		t.Fatalf("child reads created %d frames, want 0 (COW shares)", got)
	}
	// First child write of each page copies exactly once.
	for v := lo; v < lo+npages; v++ {
		must(t, childSys.Access(c, v, true))
	}
	if got := w.alloc.Created() - base; got != int64(npages) {
		t.Fatalf("child writes created %d frames, want %d (one copy per page)", got, npages)
	}
	// Repeat writes copy nothing.
	for v := lo; v < lo+npages; v++ {
		must(t, childSys.Access(c, v, true))
	}
	if got := w.alloc.Created() - base; got != int64(npages) {
		t.Fatalf("repeat child writes grew frames to %d, want %d", got, npages)
	}
	// After fork, the parent's cached writable translations are gone: its
	// next write must trap (and resolve), not sail through a stale TLB entry
	// onto the shared frame.
	protBefore := c.Stats().ProtFaults + c.Stats().PageFaults
	must(t, sys.Access(c, lo, true))
	if c.Stats().ProtFaults+c.Stats().PageFaults == protBefore {
		t.Fatal("parent write after fork used a stale writable translation")
	}
	// Isolation: the parent still owns its pages; its writes after the child
	// privatized cost at most one more copy per page (zero on RadixVM, whose
	// per-page share counts prove sole ownership; the baselines may copy
	// conservatively).
	base = w.alloc.Created()
	for v := lo; v < lo+npages; v++ {
		must(t, sys.Access(c, v, true))
	}
	extra := w.alloc.Created() - base
	if extra > int64(npages) {
		t.Fatalf("parent writes after child privatized created %d frames, want <= %d", extra, npages)
	}
	if sys.Name() == "radixvm" && extra != 0 {
		t.Fatalf("radixvm parent (sole owner) copied %d frames, want 0", extra)
	}
	reap(t, c, childSys, lo, npages)
	reap(t, c, sys, lo, npages)
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked after parent+child exit", live)
	}
}

// forkCopiesFrameContents verifies the data half of a COW break: the child's
// copy holds the parent's bytes, and later parent writes stay invisible to
// the child.
func forkCopiesFrameContents(t *testing.T, w *world, sys vm.System, _ reaper) {
	as := sys.(*vm.AddressSpace)
	c := m0(w)
	must(t, as.Mmap(c, 100, 1, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	must(t, as.Access(c, 100, true))
	as.Lookup(c, 100).Frame.Data()[0] = 0xAB
	childSys, err := as.Fork(c)
	must(t, err)
	child := childSys.(*vm.AddressSpace)
	must(t, child.Access(c, 100, true)) // diverge + COW break copies the frame
	cm, pm := child.Lookup(c, 100), as.Lookup(c, 100)
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

// forkSharesFileMappings: file-backed pages are not COW — both sides keep
// writing the same page-cache frame, exactly like two independent mappings of
// the file.
func forkSharesFileMappings(t *testing.T, w *world, sys vm.System, reap reaper) {
	f := vm.NewFile(w.alloc)
	c := m0(w)
	must(t, sys.Mmap(c, 500, 2, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite, File: f}))
	must(t, sys.Access(c, 500, true))
	childSys, err := sys.Fork(c)
	must(t, err)
	must(t, childSys.Access(c, 500, true)) // write, not a COW break
	must(t, childSys.Access(c, 501, true)) // child faults the file page itself
	if created := w.alloc.Created(); created != 2 {
		t.Fatalf("%d frames created, want 2 (file pages stay shared)", created)
	}
	reap(t, c, childSys, 500, 2)
	reap(t, c, sys, 500, 2)
	w.quiesce()
	// The page cache holds the base references.
	if live := w.alloc.Live(); live != 2 {
		t.Fatalf("live = %d after both left, want 2 (page cache refs)", live)
	}
}

// TestForkShootdownTargeting is the fork's IPI accounting, beside the
// munmap/mprotect tests': RadixVM's fork interrupts the other cores that hold
// translations of the space, to drop them (MMU.Reset) — none for a space one
// core used, however many pages it holds, and none for a core that has
// faulted nothing since the last fork swept it — and its COW breaks interrupt
// nobody. The baselines broadcast their downgrade to every active core.
func TestForkShootdownTargeting(t *testing.T) {
	w := newWorld(4)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c0 := m0(w)
	must(t, as.Mmap(c0, 100, 4, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for v := uint64(100); v < 104; v++ {
		must(t, as.Access(c0, v, true))
	}
	for k := 0; k < 2; k++ {
		_, err := as.Fork(c0)
		must(t, err)
		if got := c0.Stats().IPIsSent; got != 0 {
			t.Fatalf("fork %d of a core-local space sent %d IPIs, want 0", k, got)
		}
	}
	// A second core that faulted a page in is interrupted, and only it, by
	// the next fork — and not by the one after: that fork finds its table gone.
	c1 := w.m.CPU(1)
	must(t, as.Mmap(c0, 200, 2, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	must(t, as.Access(c1, 200, true))
	for k, want := range []uint64{1, 0} {
		before := c0.Stats().IPIsSent
		_, err := as.Fork(c0)
		must(t, err)
		if got := c0.Stats().IPIsSent - before; got != want {
			t.Fatalf("fork %d after a second core faulted sent %d IPIs, want exactly %d", k, got, want)
		}
	}
	// The parent's write after the fork breaks COW on a page only it cached.
	before := c0.Stats().IPIsSent
	must(t, as.Access(c0, 100, true))
	if got := c0.Stats().IPIsSent - before; got != 0 {
		t.Fatalf("COW break sent %d IPIs, want 0", got)
	}

	// The fleet's shape: a template only core 0 ever touched, forked from
	// every other core of a 64-core machine in turn. Per-core tables: the
	// first fork interrupts core 0, no later one anybody, however many cores
	// have used the space by then. A shared table cannot know, and its k-th
	// fork interrupts all k cores that used the space before it.
	for _, shared := range []bool{false, true} {
		tw := newWorld(64)
		var mmu vm.MMU
		if shared {
			mmu = vm.NewSharedMMU(tw.m)
		}
		tmpl := vm.New(tw.m, tw.rc, tw.alloc, mmu)
		must(t, tmpl.Mmap(m0(tw), 100, 4, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
		must(t, tmpl.Access(m0(tw), 100, true))
		for k := 1; k < 64; k++ {
			c := tw.m.CPU(k)
			_, err := tmpl.Fork(c)
			must(t, err)
			want := uint64(0)
			if shared {
				want = uint64(k)
			} else if k == 1 {
				want = 1
			}
			if got := c.Stats().IPIsSent; got != want {
				t.Fatalf("shared=%v: fork %d of a template only core 0 touched sent %d IPIs, want %d", shared, k, got, want)
			}
		}
	}

	// The Linux baseline broadcasts to every active core.
	lw := newWorld(4)
	lsys := systems(lw)[1]
	lc0 := m0(lw)
	for i := 1; i < 4; i++ {
		must(t, lsys.Mmap(lw.m.CPU(i), uint64(1000*i), 1, vm.MapOpts{Prot: vm.ProtWrite}))
		must(t, lsys.Access(lw.m.CPU(i), uint64(1000*i), true))
	}
	must(t, lsys.Mmap(lc0, 100, 1, vm.MapOpts{Prot: vm.ProtWrite}))
	must(t, lsys.Access(lc0, 100, true))
	_, err := lsys.Fork(lc0)
	must(t, err)
	if got := lc0.Stats().IPIsSent; got != 3 {
		t.Fatalf("linux fork sent %d IPIs, want 3 (broadcast to all active cores)", got)
	}
}

// TestFetchAllSystems is the satellite regression for Fetch existing only
// on RadixVM: exec-checked accesses must report identical ErrProt/ErrSegv
// outcomes on all three systems, including through cached translations.
func TestFetchAllSystems(t *testing.T) {
	for i := range systems(newWorld(1)) {
		w := newWorld(1)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			c := m0(w)
			must(t, sys.Mmap(c, 100, 1, vm.MapOpts{Prot: vm.ProtRead}))
			if err := sys.Fetch(c, 100); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("fetch from non-exec mapping: %v, want ErrProt", err)
			}
			// A cached read-only translation must still trap exec.
			must(t, sys.Access(c, 100, false))
			if err := sys.Fetch(c, 100); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("fetch through cached non-exec translation: %v, want ErrProt", err)
			}
			must(t, sys.Mmap(c, 200, 1, vm.MapOpts{Prot: vm.ProtRead | vm.ProtExec}))
			must(t, sys.Fetch(c, 200))
			// The cached translation carries the exec bit; repeats hit.
			faults := c.Stats().PageFaults
			must(t, sys.Fetch(c, 200))
			if c.Stats().PageFaults != faults {
				t.Fatal("second fetch faulted despite cached exec translation")
			}
			// Exec rights revoke like any other: mprotect away, trap.
			must(t, sys.Mprotect(c, 200, 1, vm.ProtRead))
			if err := sys.Fetch(c, 200); !errors.Is(err, vm.ErrProt) {
				t.Fatalf("fetch after exec revoke: %v, want ErrProt", err)
			}
			if err := sys.Fetch(c, 999); !errors.Is(err, vm.ErrSegv) {
				t.Fatalf("fetch from unmapped page: %v, want ErrSegv", err)
			}
		})
	}
}

// gangForkVsConcurrentWrite races repeated forks against parent writes from
// the other gang members: every access must succeed (the region stays mapped
// read-write throughout; on radixvm the fault path's epoch validation covers
// the race with the fork's invalidation), every child must be internally
// consistent, and after everything exits no frame may leak.
func gangForkVsConcurrentWrite(t *testing.T, w *world, sys vm.System, reap reaper) {
	const lo, npages = uint64(3000), uint64(8)
	must(t, sys.Mmap(m0(w), lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	children := make([]vm.System, 0, 20)
	hw.RunGang(w.m, gangCores, w.seed, func(c *hw.CPU, g *hw.Gang) {
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
				t.Errorf("core %d: parent write during fork: %v", c.ID(), err)
				return
			}
			w.rc.Maintain(c)
			g.Sync(c)
		}
	})
	if t.Failed() {
		return
	}
	// Each child is a working space: write every page, then exit.
	c := m0(w)
	for _, ch := range children {
		for v := lo; v < lo+npages; v++ {
			must(t, ch.Access(c, v, true))
		}
		reap(t, c, ch, lo, npages)
	}
	reap(t, c, sys, lo, npages)
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked across %d forks", live, len(children))
	}
}

// gangForkLeavesNoStaleTranslation races a forking core against cores
// faulting the parent's pages in, then stops everyone and reads every core's
// TLB and page table, twice per round:
//
//   - After the racing forks: a writable translation of a page may not point
//     at a frame any child still maps — the children sit untouched, so such a
//     frame is copy-on-write and the translation predates a fork whose Reset
//     (or whose epoch validation, for a fault that raced it) should have
//     removed it.
//   - After one more fork with every other core stopped: no core holds any
//     translation at all, in TLB or table — neither the holders the Reset
//     interrupted nor the cores its scan skipped. One core sits each round
//     out, so on per-core tables there is always a core to skip, and the fork
//     must have interrupted at least the cores seen holding and at most the
//     cores that ran.
func gangForkLeavesNoStaleTranslation(t *testing.T, w *world, sys vm.System, reap reaper) {
	const lo, npages, rounds = uint64(3000), uint64(8), 6
	as := sys.(*vm.AddressSpace)
	mmu := as.MMU()
	c0 := m0(w)
	must(t, sys.Mmap(c0, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	var children []vm.System
	fork := func(c *hw.CPU) {
		ch, err := sys.Fork(c)
		mustT(t, err)
		children = append(children, ch)
	}
	// held reports whether core id holds a translation of v, and its frame and
	// rights; a TLB entry the table does not back fails the test. What the
	// shared table holds beyond a core's TLB is no one core's.
	perCore := mmu.Name() == "percore"
	held := func(id int, v uint64) (pfn uint64, writable, ok bool) {
		pte, inTable := mmu.Lookup(w.m.CPU(id), v)
		if e, inTLB := mmu.TLB(id).Lookup(v); inTLB {
			if !inTable || pte.PFN != e.PFN || (e.Writable && !pte.Writable()) {
				t.Errorf("core %d caches page %d -> frame %d (writable=%v) but its table holds %+v (present=%v)", id, v, e.PFN, e.Writable, pte, inTable)
			}
			return e.PFN, e.Writable, true
		}
		return pte.PFN, pte.Writable(), inTable && perCore
	}
	// tlbInTable checks TLB ⊆ table on every core, mid-round: every operation
	// here keeps it at each of its preemption points, where the other cores
	// stand while one checks.
	tlbInTable := func(round, k int) {
		for id := 0; id < gangCores; id++ {
			for v := lo; v < lo+npages; v++ {
				e, inTLB := mmu.TLB(id).Lookup(v)
				if !inTLB {
					continue
				}
				if pte, ok := vm.PeekTable(mmu, id, v); !ok || pte.PFN != e.PFN || (e.Writable && !pte.Writable()) {
					t.Errorf("round %d, step %d: core %d caches page %d -> frame %d (writable=%v) but its table holds %+v (present=%v)", round, k, id, v, e.PFN, e.Writable, pte, ok)
				}
			}
		}
	}
	for round := 0; round < rounds; round++ {
		idle := 1 + round%(gangCores-1)
		hw.RunGang(w.m, gangCores, w.seed, func(c *hw.CPU, g *hw.Gang) {
			for k := 0; k < 40; k++ {
				switch {
				case c.ID() == 0 && k%4 == 0:
					fork(c)
				case c.ID() != 0 && c.ID() != idle:
					mustT(t, sys.Access(c, lo+uint64(k+c.ID())%npages, k%3 != 0))
				}
				w.rc.Maintain(c)
				tlbInTable(round, k)
				g.Sync(c)
			}
		})
		if t.Failed() {
			return
		}
		holding := 0
		for id := 1; id < gangCores; id++ {
			holds := false
			for v := lo; v < lo+npages; v++ {
				pfn, writable, ok := held(id, v)
				holds = holds || ok
				if !ok || !writable {
					continue
				}
				if m := as.Lookup(c0, v); m == nil || m.Frame == nil || m.Frame.PFN != pfn || (perCore && !m.TLBCores.Has(id)) {
					t.Errorf("round %d: core %d holds page %d -> frame %d writable, which the metadata does not record: %+v", round, id, v, pfn, m)
				}
				for k, ch := range children {
					if m := ch.(*vm.AddressSpace).Lookup(c0, v); m != nil && m.Frame != nil && m.Frame.PFN == pfn {
						t.Errorf("round %d: core %d holds a writable translation of page %d to frame %d, which child %d still shares", round, id, v, pfn, k)
					}
				}
			}
			if holds {
				holding++
			}
		}
		sent := c0.Stats().IPIsSent
		fork(c0)
		sent = c0.Stats().IPIsSent - sent
		most := uint64(gangCores - 1)
		if perCore {
			most-- // the core that sat the round out holds nothing to interrupt it for
		}
		if sent < uint64(holding) || sent > most {
			t.Errorf("round %d: fork with %d cores holding translations sent %d IPIs, want %d..%d", round, holding, sent, holding, most)
		}
		for id := 0; id < gangCores; id++ {
			if n := mmu.TLB(id).Len(); n != 0 {
				t.Errorf("round %d: core %d caches %d translations after a fork nobody raced", round, id, n)
			}
			for v := lo; v < lo+npages; v++ {
				if _, _, ok := held(id, v); ok {
					t.Errorf("round %d: core %d holds a translation of page %d after a fork nobody raced", round, id, v)
				}
			}
		}
		if t.Failed() {
			return
		}
	}
	for _, ch := range children {
		for v := lo; v < lo+npages; v++ {
			must(t, ch.Access(c0, v, true))
		}
		reap(t, c0, ch, lo, npages)
	}
	reap(t, c0, sys, lo, npages)
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked across %d forks", live, len(children))
	}
}

// gangCOWFaultVsMunmap races COW breaks in a child against a concurrent
// munmap of the child's range: an access may succeed or report ErrSegv (the
// munmap got there first), never anything else, never a wedge, and no frame
// may leak.
func gangCOWFaultVsMunmap(t *testing.T, w *world, sys vm.System, reap reaper) {
	const lo, npages = uint64(4000), uint64(8)
	c0 := m0(w)
	for round := 0; round < 10; round++ {
		must(t, sys.Mmap(c0, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
		for v := lo; v < lo+npages; v++ {
			must(t, sys.Access(c0, v, true))
		}
		childSys, err := sys.Fork(c0)
		must(t, err)
		hw.RunGang(w.m, gangCores, w.seed, func(c *hw.CPU, g *hw.Gang) {
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
		reap(t, c0, childSys, lo, npages) // of a child with nothing mapped
		must(t, sys.Munmap(c0, lo, npages))
		w.quiesce()
		if live := w.alloc.Live(); live != 0 {
			t.Fatalf("round %d: %d frames leaked", round, live)
		}
	}
}

// doubleForkChains: fork a fork a few generations deep; every level shares
// until written, copies exactly once when written, and the whole family —
// the oldest leaving first — tears down to zero live frames.
func doubleForkChains(t *testing.T, w *world, sys vm.System, reap reaper) {
	const lo, npages = uint64(100), uint64(2)
	c := m0(w)
	must(t, sys.Mmap(c, lo, npages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for v := lo; v < lo+npages; v++ {
		must(t, sys.Access(c, v, true))
	}
	family := []vm.System{sys}
	cur := sys
	for gen := 0; gen < 3; gen++ {
		ch, err := cur.Fork(c)
		must(t, err)
		family = append(family, ch)
		cur = ch
	}
	// Reads anywhere in the chain share the original frames.
	base := w.alloc.Created()
	for _, s := range family {
		for v := lo; v < lo+npages; v++ {
			must(t, s.Access(c, v, false))
		}
	}
	if got := w.alloc.Created() - base; got != 0 {
		t.Fatalf("chain reads created %d frames, want 0", got)
	}
	// The deepest child writes: one copy per page, once.
	for v := lo; v < lo+npages; v++ {
		must(t, cur.Access(c, v, true))
		must(t, cur.Access(c, v, true))
	}
	if got := w.alloc.Created() - base; got != int64(npages) {
		t.Fatalf("deepest child writes created %d frames, want %d", got, npages)
	}
	// Everyone exits; refcache balance returns to zero.
	for _, s := range family {
		reap(t, c, s, lo, npages)
	}
	w.quiesce()
	if live := w.alloc.Live(); live != 0 {
		t.Fatalf("%d frames leaked after the fork chain exited", live)
	}
}
