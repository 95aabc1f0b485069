package vm_test

import (
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// TestGangSimultaneousFork is the spawn-server race test: every core of a
// gang forks its own child of one shared parent at the same time — no
// barrier between the forks — then COW-writes its own disjoint region in
// its child and tears the whole child down. Run under -race. Asserted, on
// all three systems: no deadlock at the tree locks (the test completes),
// every child is internally consistent (its writes succeed and its region
// was inherited), copy accounting is exactly-once (each child's writes
// copy its own region's pages once, nothing else), and after teardown the
// refcache balance returns to zero live frames.
func TestGangSimultaneousFork(t *testing.T) {
	const ncores = 4
	const regionPages = uint64(4)
	region := func(id int) uint64 { return uint64(1000 * (id + 1)) }
	for i := range systems(newWorld(ncores)) {
		w := newWorld(ncores)
		sys := systems(w)[i]
		t.Run(sys.Name(), func(t *testing.T) {
			// The shared multithreaded parent: each core faults in its own
			// region.
			for id := 0; id < ncores; id++ {
				c := w.m.CPU(id)
				must(t, sys.Mmap(c, region(id), regionPages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
				for v := region(id); v < region(id)+regionPages; v++ {
					must(t, sys.Access(c, v, true))
				}
			}
			for round := 0; round < 5; round++ {
				var children [ncores]vm.System
				w.m.ResetStats()
				hw.RunGang(w.m, ncores, func(c *hw.CPU, g *hw.Gang) {
					id := c.ID()
					ch, err := sys.Fork(c) // all cores fork concurrently
					if err != nil {
						t.Errorf("core %d fork: %v", id, err)
						return
					}
					children[id] = ch
					g.Sync(c)
					// COW-touch this core's own region in its own child.
					for v := region(id); v < region(id)+regionPages; v++ {
						if err := ch.Access(c, v, true); err != nil {
							t.Errorf("core %d child write %d: %v", id, v, err)
							return
						}
					}
					// Another core's region is inherited and readable.
					other := region((id + 1) % ncores)
					if err := ch.Access(c, other, false); err != nil {
						t.Errorf("core %d child read of inherited region: %v", id, err)
						return
					}
					w.rc.Maintain(c)
					g.Sync(c)
				})
				if t.Failed() {
					return
				}
				// Exactly-once copy accounting: each child write is one COW
				// break, and each break copies (allocates) exactly one
				// frame — its own region's page — and nothing else.
				st := w.m.TotalStats()
				if want := uint64(ncores * int(regionPages)); st.COWBreaks != want || st.PagesZeroed != want {
					t.Fatalf("round %d: %d COW breaks, %d frames copied, want %d each",
						round, st.COWBreaks, st.PagesZeroed, want)
				}
				// Each child exits: unmap every inherited region.
				hw.RunGang(w.m, ncores, func(c *hw.CPU, g *hw.Gang) {
					ch := children[c.ID()]
					for id := 0; id < ncores; id++ {
						if err := ch.Munmap(c, region(id), regionPages); err != nil {
							t.Errorf("core %d child munmap: %v", c.ID(), err)
							return
						}
					}
					w.rc.Maintain(c)
					g.Sync(c)
				})
				if t.Failed() {
					return
				}
			}
			// The parent exits too; nothing may leak.
			c := m0(w)
			for id := 0; id < ncores; id++ {
				must(t, sys.Munmap(c, region(id), regionPages))
			}
			w.quiesce()
			if live := w.alloc.Live(); live != 0 {
				t.Fatalf("%d frames leaked after %d concurrent-fork rounds", live, 5)
			}
		})
	}
}
