package vm_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

// The tests of the per-page holder index (vm.File): the oracle for its
// invariant after the races a revocation runs beside, the translation oracle
// for what a revocation leaves behind, and the host-cost guards.

const (
	holdFile = uint64(1) << 30 // VPN of the file mapping
	holdAnon = uint64(1) << 31 // VPN of the anonymous scratch mapping
)

var rw = vm.ProtRead | vm.ProtWrite

// drained checks the end state the index owes: with every space exited and
// the refcache drained, the only frames alive are the page cache's residents,
// and whatever entries the holder sets still carry are leftovers of exited
// spaces — one more revocation walks into them, revokes nothing, and leaves
// every set empty.
func drained(t *testing.T, w *world, c *hw.CPU, f *vm.File) {
	t.Helper()
	w.quiesce()
	if live, cached := w.alloc.Live(), int64(f.Cache().Pages()); live != cached {
		t.Errorf("%d frames alive after every space exited, want the page cache's %d", live, cached)
	}
	revoked := f.Stats().Revoked
	f.Writeback(c, 0, 1<<20)
	if got := f.Stats().Revoked - revoked; got != 0 {
		t.Errorf("a writeback after every space exited revoked %d translations, want 0", got)
	}
	if got := f.Holders(); got != 0 {
		t.Errorf("%d holder entries left after every space exited and one more revocation, want 0", got)
	}
}

// TestHolderOracleFaultVsTruncate replays TestRaceFileFaultVsTruncate
// (internal/workload) on RadixVM and then asks the holder oracle: demand
// faults raced truncate/extend/writeback cycles, and every frame the space
// still holds must be one a revocation can find.
func TestHolderOracleFaultVsTruncate(t *testing.T) {
	over(t, bothMMUs(), gangCores, func(t *testing.T, w *world, sys vm.System, reap reaper) {
		c0 := m0(w)
		f := vm.NewFile(w.alloc)
		must(t, sys.Mmap(c0, holdFile, 64, vm.MapOpts{Prot: rw, File: f}))
		// The readers run for as long as the ticker does and a little longer,
		// so the race covers every revocation and leaves pages held.
		var tickerDone atomic.Bool
		hw.RunGang(w.m, gangCores, func(c *hw.CPU, g *hw.Gang) {
			for k, after := 0, 0; after < 8; k++ {
				switch {
				case c.ID() != 0:
					if tickerDone.Load() {
						after++
					}
					v := holdFile + uint64(k*7+c.ID()*13)%64
					if err := sys.Access(c, v, false); err != nil && !errors.Is(err, vm.ErrSegv) {
						t.Errorf("core %d: fault vs truncate: %v", c.ID(), err)
					}
				case k < 40:
					f.Truncate(c, 8)
					f.Extend(64)
					f.Writeback(c, uint64(k)%48, 16)
				default:
					tickerDone.Store(true)
					after = 8
				}
				w.rc.Maintain(c)
				g.Sync(c)
			}
		})
		if held := vm.CheckHolders(t, c0, holdFile, holdFile+64, sys.(*vm.AddressSpace)); held == 0 {
			t.Error("the space holds no file page after the race: the oracle checked nothing")
		}
		reap(t, c0, sys, holdFile, 64)
		drained(t, w, c0, f)
	})
}

// TestHolderOracleWritebackVsForkCOWExit replays
// TestRaceWritebackVsForkCOWExit (internal/workload) on RadixVM: cores fork
// children off a space that maps the file and has faulted some of it, the
// children fault file pages and break COW on inherited anonymous ones, and
// every other child exits — while core 0 revokes the file's translations the
// whole time. The oracle then walks the parent and the children still alive.
func TestHolderOracleWritebackVsForkCOWExit(t *testing.T) {
	over(t, bothMMUs(), gangCores, func(t *testing.T, w *world, sys vm.System, reap reaper) {
		c0 := m0(w)
		f := vm.NewFile(w.alloc)
		must(t, sys.Mmap(c0, holdFile, 32, vm.MapOpts{Prot: rw, File: f}))
		must(t, sys.Mmap(c0, holdAnon, 4, vm.MapOpts{Prot: rw}))
		for p := uint64(0); p < 4; p++ {
			must(t, sys.Access(c0, holdAnon+p, true))
			must(t, sys.Access(c0, holdFile+8+p, false)) // the children inherit faulted file pages
		}
		var mu sync.Mutex
		alive := []*vm.AddressSpace{sys.(*vm.AddressSpace)}
		// The forkers run for as long as the ticker does and one round
		// longer, so the race leaves the parent holding pages.
		var tickerDone atomic.Bool
		hw.RunGang(w.m, gangCores, func(c *hw.CPU, g *hw.Gang) {
			for k, last := 0, false; !last; k++ {
				if c.ID() == 0 {
					f.Writeback(c, uint64(k%4)*8, 16)
					if k%8 == 7 {
						f.Truncate(c, 24)
						f.Extend(32)
					}
					last = k == 23
					tickerDone.Store(last)
				} else {
					last = k >= 23 && tickerDone.Load()
					// The parent holds a file page the child will not read
					// when it forks, revoked or not a moment ago.
					mustT(t, sys.Access(c, holdFile+20+uint64(c.ID()), false))
					ch, err := sys.Fork(c)
					mustT(t, err)
					for p := uint64(0); p < 6; p++ {
						v := holdFile + (uint64(c.ID())*5+p)%20
						mustT(t, ch.Access(c, v, p%2 == 0))
					}
					for p := uint64(0); p < 4; p++ {
						mustT(t, ch.Access(c, holdAnon+p, true))
					}
					if k%2 == 0 {
						exit(c, ch)
					} else {
						mu.Lock()
						alive = append(alive, ch.(*vm.AddressSpace))
						mu.Unlock()
					}
				}
				w.rc.Maintain(c)
				g.Sync(c)
			}
		})
		if held := vm.CheckHolders(t, c0, holdFile, holdFile+32, alive...); held == 0 {
			t.Error("no live space holds a file page after the race: the oracle checked nothing")
		}
		for _, as := range alive {
			exit(c0, as)
		}
		drained(t, w, c0, f)
	})
}

// forkRecorder is a template system that remembers the children FileServe
// forks off it, which the workload otherwise keeps to itself.
type forkRecorder struct {
	vm.System
	kids []*vm.AddressSpace
}

func (r *forkRecorder) Fork(c *hw.CPU) (vm.System, error) {
	ch, err := r.System.Fork(c)
	if err == nil {
		r.kids = append(r.kids, ch.(*vm.AddressSpace)) // on-schedule: forks are serialized
	}
	return ch, err
}

// TestHolderOracleAfterFileServe runs the filemap fleet and asks the holder
// oracle about what it leaves: the template and the children still resident
// in the pool, dormant and holding whatever the ticker did not revoke.
func TestHolderOracleAfterFileServe(t *testing.T) {
	over(t, bothMMUs(), 8, func(t *testing.T, w *world, sys vm.System, reap reaper) {
		cfg := workload.DefaultFileServeConfig()
		cfg.Procs, cfg.MaxLive, cfg.WBRounds = 96, 48, 24
		rec := &forkRecorder{System: sys}
		r := workload.FileServe(&workload.Env{M: w.m, RC: w.rc}, rec, 8, w.alloc, cfg)
		c0 := m0(w)
		tmpl := sys.(*vm.AddressSpace)
		const base = uint64(1) << 34 // FileServe's one mapping
		f := tmpl.Lookup(c0, base).Back.File
		alive := []*vm.AddressSpace{tmpl}
		for _, kid := range rec.kids {
			if !kid.Exited() {
				alive = append(alive, kid)
			}
		}
		if len(rec.kids) != cfg.Procs || len(alive) < 2 || r.RevokedPages == 0 {
			t.Fatalf("%d children forked, %d spaces alive, %d translations revoked: the run checked nothing", len(rec.kids), len(alive), r.RevokedPages)
		}
		if held := vm.CheckHolders(t, c0, base, base+cfg.FilePages, alive...); held == 0 {
			t.Error("no resident space holds a file page: the oracle checked nothing")
		}
		for _, as := range alive {
			exit(c0, as)
		}
		drained(t, w, c0, f)
	})
}

// TestRevocationLeavesNoStaleTranslation is the translation oracle (TLB ⊆
// page table ⊆ metadata) for revocation, on both MMUs: a parent and three
// forked children read overlapping windows of one file from two cores each —
// so a space's pages have the sharer sets {A}, {A,B}, {B} that one interrupt
// round now covers — and after Writeback, and then Truncate, returns, no core
// caches or maps a revoked page in any space and its metadata holds no frame;
// what a core does still cache is backed by its table and recorded in the
// metadata.
func TestRevocationLeavesNoStaleTranslation(t *testing.T) {
	over(t, bothMMUs(), gangCores, func(t *testing.T, w *world, sys vm.System, reap reaper) {
		const npages = uint64(32)
		c0 := m0(w)
		f := vm.NewFile(w.alloc)
		must(t, sys.Mmap(c0, holdFile, npages, vm.MapOpts{Prot: rw, File: f}))
		spaces := []*vm.AddressSpace{sys.(*vm.AddressSpace)}
		for i := 0; i < 3; i++ {
			ch, err := sys.Fork(c0)
			must(t, err)
			spaces = append(spaces, ch.(*vm.AddressSpace))
		}
		read := func() {
			t.Helper()
			for i, as := range spaces {
				a, b := w.m.CPU(i%gangCores), w.m.CPU((i+1)%gangCores)
				for p := uint64(0); p < 12; p++ {
					for _, at := range []struct {
						c *hw.CPU
						v uint64
					}{{a, holdFile + uint64(i)*4 + p}, {b, holdFile + uint64(i)*4 + 8 + p}} {
						if err := as.Access(at.c, at.v, false); err != nil && !(errors.Is(err, vm.ErrSegv) && at.v-holdFile >= f.Len()) {
							t.Fatalf("space %d, core %d, page %d: %v", i, at.c.ID(), at.v-holdFile, err)
						}
					}
				}
			}
		}
		check := func(what string, lo, hi uint64) {
			t.Helper()
			for i, as := range spaces {
				mmu := as.MMU()
				perCore := mmu.Name() == "percore"
				for off := uint64(0); off < npages; off++ {
					v := holdFile + off
					m := as.Lookup(c0, v)
					revoked := off >= lo && off < hi
					if revoked && m.Frame != nil {
						t.Errorf("%s: space %d still holds frame %d of revoked page %d", what, i, m.Frame.PFN, off)
					}
					for id := 0; id < gangCores; id++ {
						pte, inTable := mmu.Lookup(w.m.CPU(id), v)
						e, inTLB := mmu.TLB(id).Lookup(v)
						switch {
						case revoked && (inTLB || inTable):
							t.Errorf("%s: space %d, core %d still translates revoked page %d (TLB %v, table %v)", what, i, id, off, inTLB, inTable)
						case inTLB && (!inTable || pte.PFN != e.PFN):
							t.Errorf("%s: space %d, core %d caches page %d -> frame %d, its table holds %+v (present=%v)", what, i, id, off, e.PFN, pte, inTable)
						case inTable && (m.Frame == nil || m.Frame.PFN != pte.PFN || (perCore && !m.TLBCores.Has(id))):
							t.Errorf("%s: space %d, core %d maps page %d -> frame %d, which the metadata does not record: %+v", what, i, id, off, pte.PFN, *m)
						}
					}
				}
			}
		}
		read()
		check("before any revocation", 0, 0)
		f.Writeback(c0, 8, 16)
		check("writeback of [8, 24)", 8, 24)
		read()
		f.Truncate(c0, 4)
		check("truncate to 4", 4, npages)
		read()
		check("reads past the new EOF", 4, npages)
		if held := vm.CheckHolders(t, c0, holdFile, holdFile+npages, spaces...); held != 4 {
			t.Errorf("the spaces hold %d file pages, want the 4 below EOF that the first one reads", held)
		}
		for _, as := range spaces {
			exit(c0, as)
		}
		// Nothing raced here: a space that exits holding a page leaves the
		// page's holder set there and then.
		if got := f.Holders(); got != 0 {
			t.Errorf("%d holder entries left by spaces that exited holding their pages, want 0", got)
		}
		drained(t, w, c0, f)
	})
}

// TestRevocationFollowsEachPlacement, on both MMUs: one space maps a file at
// three placements — A and B over the same offsets, C shifted by 8 — and a
// Writeback of a window revokes exactly that window's pages through every
// placement, leaving the rest cached. A placement the space later replaced
// holds nothing a revocation may touch: neither anonymous memory mapped over
// it nor the same file mapped there at other offsets.
func TestRevocationFollowsEachPlacement(t *testing.T) {
	const n = uint64(16)
	over(t, bothMMUs(), 2, func(t *testing.T, w *world, sys vm.System, reap reaper) {
		c0, c1 := m0(w), w.m.CPU(1)
		as := sys.(*vm.AddressSpace)
		f := vm.NewFile(w.alloc)
		placements := []struct{ vpn, off uint64 }{{holdFile, 0}, {holdFile + 64, 0}, {holdFile + 128, 8}}
		for _, p := range placements {
			must(t, sys.Mmap(c0, p.vpn, n, vm.MapOpts{Prot: rw, File: f, Offset: p.off}))
		}
		readAll := func() {
			t.Helper()
			for _, p := range placements {
				for i := uint64(0); i < n; i++ {
					must(t, sys.Access(c1, p.vpn+i, false))
				}
			}
		}
		readAll()
		const lo, hi = 4, 12 // the window, in file offsets
		before := f.Stats()
		f.Writeback(c0, lo, hi-lo)
		if got, want := f.Stats().Revoked-before.Revoked, uint64(2*(hi-lo)+(hi-8)); got != want {
			t.Errorf("a writeback of offsets [%d, %d) revoked %d translations, want %d: A's and B's 8, C's 4", lo, hi, got, want)
		}
		for _, p := range placements {
			for i := uint64(0); i < n; i++ {
				off := p.off + i
				_, cached := as.MMU().TLB(c1.ID()).Lookup(p.vpn + i)
				if in := off >= lo && off < hi; in == cached {
					t.Errorf("placement at VPN %#x, offset %d: cached after the writeback = %v, want %v", p.vpn, off, cached, !in)
				}
			}
		}
		faults := c1.Stats().PageFaults
		readAll()
		if got := c1.Stats().PageFaults - faults; got != 20 {
			t.Errorf("rereading every placement took %d faults, want the 20 revoked pages'", got)
		}
		for _, p := range placements {
			if held := vm.CheckHolders(t, c0, p.vpn, p.vpn+n, as); held != int(n) {
				t.Errorf("placement at VPN %#x holds %d file pages, want %d", p.vpn, held, n)
			}
		}

		// A is replaced twice over, each time after faulting f through it:
		// by anonymous memory, then by f at offsets no window below covers.
		f.Writeback(c0, 0, 64)
		a := placements[0].vpn
		for _, remap := range []struct {
			what string
			opts vm.MapOpts
		}{{"anonymous memory", vm.MapOpts{Prot: rw}}, {"f at offset 32", vm.MapOpts{Prot: rw, File: f, Offset: 32}}} {
			must(t, sys.Mmap(c0, a, n, vm.MapOpts{Prot: rw, File: f}))
			must(t, sys.Access(c1, a, false))
			must(t, sys.Munmap(c0, a, n))
			must(t, sys.Mmap(c0, a, n, remap.opts))
			must(t, sys.Access(c1, a, true))
			before := f.Stats()
			f.Writeback(c0, 0, n)
			if got := f.Stats().Revoked - before.Revoked; got != 0 {
				t.Errorf("A remapped to %s: the writeback revoked %d translations, want 0", remap.what, got)
			}
			if _, cached := as.MMU().TLB(c1.ID()).Lookup(a); !cached || as.Lookup(c0, a).Frame == nil {
				t.Errorf("A remapped to %s: the writeback took the new mapping's translation", remap.what)
			}
		}
		reap(t, c0, sys, holdFile, 256)
		drained(t, w, c0, f)
	})
}

// TestRevocationInterruptsOnceAcrossHolders, on both MMUs: four forked spaces
// read overlapping windows of one file from overlapping core pairs, and one
// Writeback that finds all four holding pages sends the ticker's core one
// interrupt round, whose targets are the union over every visited space minus
// the sender — the revoked pages' sharers on per-core tables, every core that
// used a visited space on the shared one — not a round per visited space,
// which would be four.
func TestRevocationInterruptsOnceAcrossHolders(t *testing.T) {
	const ncores, window = 6, uint64(14)
	over(t, bothMMUs(), ncores, func(t *testing.T, w *world, sys vm.System, reap reaper) {
		c0 := m0(w)
		f := vm.NewFile(w.alloc)
		must(t, sys.Mmap(c0, holdFile, 32, vm.MapOpts{Prot: rw, File: f}))
		perCore := sys.(*vm.AddressSpace).MMU().Name() == "percore"
		// Space i is read by cores i and i+1 (core 5 reads nothing), each over
		// twelve pages: sharer sets {i}, {i, i+1}, {i+1}.
		var spaces []vm.System
		var sharers, users hw.CoreSet
		for i := 0; i < 4; i++ {
			ch, err := sys.Fork(c0)
			must(t, err)
			spaces = append(spaces, ch)
			for k, lo := range []uint64{uint64(4 * i), uint64(4*i + 8)} {
				c := w.m.CPU(i + k)
				for off := lo; off < lo+12; off++ {
					must(t, ch.Access(c, holdFile+off, false))
				}
				users.Add(c.ID())
				if lo < window {
					sharers.Add(c.ID())
				}
			}
		}
		want, of := users, "cores that used a visited space"
		if perCore {
			want, of = sharers, "revoked pages' sharers"
		}
		want.Remove(c0.ID())
		foldMail(w, c0.Now())
		rounds, sent := c0.Stats().Shootdowns, c0.Stats().IPIsSent
		visits := f.Stats().Visits
		f.Writeback(c0, 0, window)
		if got := f.Stats().Visits - visits; got != 4 {
			t.Fatalf("the writeback visited %d spaces, want the 4 holders", got)
		}
		if got := c0.Stats().Shootdowns - rounds; got != 1 {
			t.Errorf("one writeback across 4 holders sent %d interrupt rounds, want 1", got)
		}
		if got := c0.Stats().IPIsSent - sent; got != uint64(want.Count()) {
			t.Errorf("the round interrupted %d cores, want %d: the %s, minus the sender", got, want.Count(), of)
		}
		for _, ch := range spaces {
			exit(c0, ch)
		}
		exit(c0, sys)
		drained(t, w, c0, f)
	})
}

// TestRevocationAllocatesNothing: in steady state a revocation cycle — two
// cores refault a registered space's window, Writeback takes the window's
// holder sets and walks into the space over its hull — allocates nothing:
// re-registration appends into the sets' retained storage, the visit list and
// the references the round releases live in the file's spare batch, and each
// visit keeps its one open run in locals. A batch that spans three holder
// spaces allocates nothing either; there only the Writeback is counted, each
// into a window all three refaulted beforehand.
func TestRevocationAllocatesNothing(t *testing.T) {
	over(t, bothMMUs(), 4, func(t *testing.T, w *world, sys vm.System, reap reaper) {
		c0 := m0(w)
		f := vm.NewFile(w.alloc)
		must(t, sys.Mmap(c0, holdFile, 64, vm.MapOpts{Prot: rw, File: f}))
		cycle := func() {
			for p := uint64(0); p < 16; p++ {
				mustT(t, sys.Access(w.m.CPU(1), holdFile+20+p, false))
				mustT(t, sys.Access(w.m.CPU(2), holdFile+28+p, false))
			}
			f.Writeback(c0, 0, 64)
			foldMail(w, c0.Now())
		}
		cycle()
		revoked := f.Stats().Revoked
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("a refault-and-revoke cycle over a 24-page hull: %v allocs, want 0", allocs)
		}
		if got := f.Stats().Revoked - revoked; got != 21*24 {
			t.Errorf("the cycles revoked %d translations, want %d (24 pages each)", got, 21*24)
		}
	})
	t.Run("three holders", func(t *testing.T) { over(t, bothMMUs(), 4, revokeThreeHolders) })
}

// revokeThreeHolders: sys and two forks each refault 21 windows of one file
// from two cores; then each Writeback revokes one window, visiting all three.
func revokeThreeHolders(t *testing.T, w *world, sys vm.System, _ reaper) {
	const windows = 21 // AllocsPerRun(20) calls once more to warm up
	c0 := m0(w)
	f := vm.NewFile(w.alloc)
	must(t, sys.Mmap(c0, holdFile, 64*windows, vm.MapOpts{Prot: rw, File: f}))
	spaces := []vm.System{sys}
	for range 2 {
		ch, err := sys.Fork(c0)
		must(t, err)
		spaces = append(spaces, ch)
	}
	for k := uint64(0); k < windows; k++ {
		for _, as := range spaces {
			for p := uint64(0); p < 16; p++ {
				must(t, as.Access(w.m.CPU(1), holdFile+64*k+20+p, false))
				must(t, as.Access(w.m.CPU(2), holdFile+64*k+28+p, false))
			}
		}
	}
	foldMail(w, c0.Now())
	before := f.Stats()
	k := uint64(0)
	allocs := testing.AllocsPerRun(windows-1, func() {
		f.Writeback(c0, 64*k, 64)
		k++
	})
	if allocs != 0 {
		t.Errorf("a writeback across three holders' 24-page hulls: %v allocs, want 0", allocs)
	}
	if got := f.Stats().Visits - before.Visits; got != 3*windows {
		t.Errorf("the writebacks visited %d spaces, want %d (3 holders each)", got, 3*windows)
	}
	if got := f.Stats().Revoked - before.Revoked; got != 3*24*windows {
		t.Errorf("the writebacks revoked %d translations, want %d (24 pages in each of 3 spaces)", got, 3*24*windows)
	}
}

// TestFilePageRemapCycleAllocatesNothing is Figure 8's loop: a space that is
// in a file page's holder set maps, faults and unmaps the page over and over.
// The fault finds the space registered (an uncharged membership hit), the
// munmap leaves the entry, and nothing allocates.
func TestFilePageRemapCycleAllocatesNothing(t *testing.T) {
	w := newWorld(1)
	as := vm.New(w.m, w.rc, w.alloc, nil)
	c := m0(w)
	f := vm.NewFile(w.alloc)
	cycle := func() {
		mustT(t, as.Mmap(c, holdFile, 1, vm.MapOpts{Prot: rw, File: f}))
		mustT(t, as.Access(c, holdFile, true))
		mustT(t, as.Munmap(c, holdFile, 1))
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("map, fault, unmap of one file page: %v allocs, want 0", allocs)
	}
	if got := f.Holders(); got != 1 {
		t.Errorf("%d holder entries after the cycles, want 1", got)
	}
}
