package sharedvm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/counter"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/sharedvm"
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

// drained reports the frames live once every deferred release has run.
func (w *world) drained() int64 {
	for i := 0; i < 20; i++ {
		w.rc.FlushAll()
	}
	return w.alloc.Live()
}

// policy is one baseline's locking policy.
type policy struct {
	name string
	new  func(w *world) *sharedvm.Space
	// lockFree: faults run outside the lock. A published region must then
	// never be mutated or leave a page uncovered, and a remap can land in
	// the middle of a fault.
	lockFree bool
	// split is the index operations of a boundary mprotect of [103, 106)
	// inside a region [100, 110).
	split string
}

// policies is the one table every test here runs over.
var policies = []policy{
	{"linux", func(w *world) *sharedvm.Space { return linuxvm.New(w.m, w.rc, w.alloc) }, false, "D100 I100 I103 I106"},
	{"bonsai", func(w *world) *sharedvm.Space { return bonsaivm.New(w.m, w.rc, w.alloc) }, true, "I106 I103 I100"},
}

const rw = vm.ProtRead | vm.ProtWrite

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// pfnOf returns the frame number of f's page off.
func pfnOf(w *world, c *hw.CPU, f *vm.File, off uint64) uint64 {
	fr, _ := f.Page(c, off)
	w.alloc.DecRef(c, fr) // Page took a reference for a mapping we do not make
	return fr.PFN
}

// checkBacking faults every page of [lo, hi) that as maps and checks that
// the installed translation points at the file page the region names.
func checkBacking(t *testing.T, w *world, c *hw.CPU, as *sharedvm.Space, lo, hi uint64) {
	t.Helper()
	for vpn := lo; vpn < hi; vpn++ {
		r := as.Find(c, vpn)
		if r == nil {
			continue
		}
		must(t, as.Access(c, vpn, false))
		f, off := r.Page(vpn)
		pte, ok := as.MMU.PageTable().Peek(vpn)
		if want := pfnOf(w, c, f, off); !ok || pte.PFN != want {
			t.Errorf("vpn %d: region maps file offset %d (pfn %d) but the page table holds pfn %d (present %v)",
				vpn, off, want, pte.PFN, ok)
		}
	}
}

// TestFaultRevalidatesBacking: a region replaced between a fault's region
// read and its PTE install, by one with the same rights and another file
// page behind it, must not leave the old page installed. The file's counter
// constructor runs inside the faulter's File.Page — exactly that window —
// and remaps the page from offset 0 to offset 1 on another CPU. (Where
// faults hold the lock the remap cannot land there; it runs beside the fault,
// on the explorer, and the final state must be just as consistent.) A second
// region keeps the file's mapper count above zero.
func TestFaultRevalidatesBacking(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			for seed := range hw.Seeds(8) {
				faultRevalidatesBacking(t, p, seed)
				if t.Failed() {
					t.Fatalf("failed at seed %d", seed)
				}
			}
		})
	}
}

func faultRevalidatesBacking(t *testing.T, p policy, seed uint64) {
	w := newWorld(2)
	c0 := w.m.CPU(0)
	as := p.new(w)
	var file *vm.File
	armed, remapped, beside := true, false, false
	remap := func(c *hw.CPU) {
		must(t, as.Mmap(c, 100, 1, vm.MapOpts{Prot: vm.ProtRead, File: file, Offset: 1}))
		remapped = true
	}
	file = vm.NewFileWithCounter(w.alloc, func() counter.Counter {
		if armed {
			armed = false
			if p.lockFree {
				remap(w.m.CPU(1))
			} else {
				beside = true
			}
		}
		return counter.NewShared(0)
	})
	must(t, as.Mmap(c0, 200, 1, vm.MapOpts{Prot: vm.ProtRead, File: file, Offset: 8}))
	must(t, as.Mmap(c0, 100, 1, vm.MapOpts{Prot: vm.ProtRead, File: file, Offset: 0}))
	faulted := false
	hw.RunGang(w.m, 2, seed, func(c *hw.CPU, g *hw.Gang) {
		if c.ID() == 0 {
			must(t, as.Access(c, 100, false))
			faulted = true
			return
		}
		for !beside && !faulted {
			c.Tick(100)
			g.Sync(c)
		}
		if beside {
			remap(c)
		}
	})
	if !remapped {
		t.Fatal("the fault never ran the counter constructor that remaps")
	}
	if pte, ok := as.MMU.PageTable().Peek(100); ok && pte.PFN != pfnOf(w, c0, file, 1) {
		t.Fatalf("region maps file offset 1 (pfn %d) but the page table holds pfn %d",
			pfnOf(w, c0, file, 1), pte.PFN)
	}
	checkBacking(t, w, c0, as, 100, 101)
	must(t, as.Munmap(c0, 100, 101))
	file.Truncate(c0, 0)
	if live := w.drained(); live != 0 {
		t.Errorf("%d frames live after teardown", live)
	}
}

// TestSplitsKeepFileOffsets: a partial munmap and a boundary mprotect of a
// file region keep Offset + (vpn − Start) for every surviving page, and an
// mprotect across the hole fails with ErrSegv yet applies the new rights to
// the pieces it covers.
func TestSplitsKeepFileOffsets(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			w := newWorld(1)
			c := w.m.CPU(0)
			as := p.new(w)
			file := vm.NewFile(w.alloc)
			must(t, as.Mmap(c, 100, 10, vm.MapOpts{Prot: rw, File: file, Offset: 20}))
			must(t, as.Access(c, 101, true)) // a translation the splits must not disturb
			must(t, as.Munmap(c, 103, 2))
			must(t, as.Mprotect(c, 107, 2, vm.ProtRead))
			if got := as.Regions(); got != 4 {
				t.Fatalf("%d regions, want [100,103) [105,107) [107,109) [109,110)", got)
			}
			checkBacking(t, w, c, as, 100, 110)

			if err := as.Mprotect(c, 101, 6, vm.ProtRead); !errors.Is(err, vm.ErrSegv) {
				t.Fatalf("mprotect across the hole [103,105): %v, want ErrSegv", err)
			}
			for _, vpn := range []uint64{101, 102, 105, 106} {
				if err := as.Access(c, vpn, true); !errors.Is(err, vm.ErrProt) {
					t.Errorf("write to %d after the failed mprotect: %v, want ErrProt", vpn, err)
				}
			}
			must(t, as.Access(c, 100, true))
			must(t, as.Access(c, 109, true))
			checkBacking(t, w, c, as, 100, 110)

			must(t, as.Munmap(c, 100, 10))
			file.Truncate(c, 0)
			if live := w.drained(); live != 0 {
				t.Errorf("%d frames live after teardown", live)
			}
		})
	}
}

// TestMapperMembership: a space is in a file's mapper registry exactly
// while at least one of its regions maps the file, however the regions are
// cut up, and a forked child is in it before Fork returns.
func TestMapperMembership(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			w := newWorld(1)
			c := w.m.CPU(0)
			as := p.new(w)
			file := vm.NewFile(w.alloc)
			want := func(n int, after string) {
				t.Helper()
				if got := file.Mappers(); got != n {
					t.Fatalf("after %s: %d mappers, want %d", after, got, n)
				}
			}
			want(0, "nothing")
			must(t, as.Mmap(c, 50, 4, vm.MapOpts{Prot: rw})) // anonymous: not the file's business
			want(0, "an anonymous mmap")
			must(t, as.Mmap(c, 100, 10, vm.MapOpts{Prot: rw, File: file}))
			want(1, "mmap")
			must(t, as.Munmap(c, 104, 2))
			want(1, "a split")
			must(t, as.Munmap(c, 100, 2))
			want(1, "a trim")
			must(t, as.Mprotect(c, 107, 1, vm.ProtRead))
			want(1, "an mprotect split")
			must(t, as.Mmap(c, 200, 4, vm.MapOpts{Prot: rw, File: file}))
			must(t, as.Mmap(c, 106, 4, vm.MapOpts{Prot: rw, File: file, Offset: 40}))
			want(1, "a remap beside a sibling")

			child, err := as.Fork(c)
			must(t, err)
			want(2, "fork")
			must(t, child.Munmap(c, 0, 1000))
			want(1, "the child's last munmap")
			must(t, as.Munmap(c, 100, 10))
			want(1, "unmapping all but the sibling")
			must(t, as.Munmap(c, 200, 4))
			want(0, "the last region")
		})
	}
}

// TestWholeRegionMprotectAllocations: an mprotect that covers a whole region
// rewrites it as one piece. Under the write lock linux rewrites the region in
// place and allocates nothing; bonsai's lock-free faulters may hold the
// published region, so it publishes a copy in a new node of its persistent
// tree: two allocations.
func TestWholeRegionMprotectAllocations(t *testing.T) {
	want := map[string]float64{"linux": 0, "bonsai": 2}
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			w := newWorld(1)
			c := w.m.CPU(0)
			as := p.new(w)
			must(t, as.Mmap(c, 100, 10, vm.MapOpts{Prot: rw}))
			must(t, as.Access(c, 104, true))
			prots := [2]vm.Prot{vm.ProtRead, rw}
			k := 0
			allocs := testing.AllocsPerRun(100, func() {
				k++
				if err := as.Mprotect(c, 100, 10, prots[k%2]); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != want[p.name] {
				t.Errorf("mprotect of a whole region: %v allocs, want %v", allocs, want[p.name])
			}
			if got := as.Regions(); got != 1 {
				t.Errorf("%d regions after whole-region mprotects, want 1", got)
			}
		})
	}
}

// spy records every index operation and runs a check after each.
type spy struct {
	sharedvm.Policy
	ops   []string
	after func()
}

func (s *spy) Insert(cpu *hw.CPU, start uint64, r *sharedvm.Region) {
	s.Policy.Insert(cpu, start, r)
	s.ops = append(s.ops, fmt.Sprintf("I%d", start))
	s.after()
}

func (s *spy) Delete(cpu *hw.CPU, start uint64) {
	s.Policy.Delete(cpu, start)
	s.ops = append(s.ops, fmt.Sprintf("D%d", start))
	s.after()
}

// TestPublishDiscipline pins how each policy replaces a published region:
// the exact index operations of a boundary split, and — where faults read
// the index without the lock — that a region a faulter may be holding is
// bit-identical after mprotect and fork, and that no page of the old extent
// is uncovered after any single index operation.
func TestPublishDiscipline(t *testing.T) {
	for _, p := range policies {
		t.Run(p.name, func(t *testing.T) {
			w := newWorld(1)
			c := w.m.CPU(0)
			as := p.new(w)
			must(t, as.Mmap(c, 100, 10, vm.MapOpts{Prot: rw}))
			must(t, as.Access(c, 104, true))
			held := as.Find(c, 104)
			before := *held

			var sp *spy
			as.WrapPolicy(func(inner sharedvm.Policy) sharedvm.Policy {
				sp = &spy{Policy: inner}
				return sp
			})
			sp.after = func() {
				if !p.lockFree {
					return
				}
				for vpn := uint64(100); vpn < 110; vpn++ {
					if as.Find(c, vpn) == nil {
						t.Errorf("after %s: page %d is uncovered", strings.Join(sp.ops, " "), vpn)
					}
				}
			}
			must(t, as.Mprotect(c, 103, 3, vm.ProtRead))
			if got := strings.Join(sp.ops, " "); got != p.split {
				t.Errorf("boundary mprotect issued %q, want %q", got, p.split)
			}
			must(t, as.Mprotect(c, 103, 3, rw)) // wholly inside one region
			child, err := as.Fork(c)
			must(t, err)
			if p.lockFree && *held != before {
				t.Errorf("a published region was mutated: %+v, was %+v", *held, before)
			}
			for vpn := uint64(100); vpn < 110; vpn++ {
				if r := as.Find(c, vpn); r == nil || !r.COW {
					t.Fatalf("page %d after fork: %+v, want a COW region", vpn, r)
				}
			}
			sp.after = func() {} // teardown may uncover what it unmaps
			must(t, child.Munmap(c, 100, 10))
			must(t, as.Munmap(c, 100, 10))
			if live := w.drained(); live != 0 {
				t.Errorf("%d frames live after teardown", live)
			}
		})
	}
}
