package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// TestSystemsAgreeOnOpStream applies one seeded single-core stream of
// mmap/munmap/mprotect/access/fetch/fork/child-access/teardown to radixvm,
// linux and bonsai, each in its own world. What must not depend on the
// system: the error every operation returns, and that no frame outlives
// teardown. What may: clocks, which is why none is compared.
//
// Then the same with four cores, each playing its own stream in its own
// window of one address space, interleaved by the explorer: the errors a
// core sees may depend neither on the system nor on the interleaving, and
// every stream is held to the single-system trace of the first system, core
// by core. Each window's regions stay in the window: one region across the
// windows lets a core's munmap trim a region another core faults in, which
// is sharedvm.removeOverlaps' spurious ErrSegv on bonsai (CHANGES.md).
func TestSystemsAgreeOnOpStream(t *testing.T) {
	const window = 48 // pages a stream plays in
	for seed := int64(1); seed <= 4; seed++ {
		var trace []string // op i's description and outcome on the first system
		for si, name := range []string{"radixvm", "linux", "bonsai"} {
			w := newWorld(1)
			c := m0(w)
			st := newOpStream(w, systems(w)[si], seed, uint64(1<<20), window)
			for i := 0; i < 3000; i++ {
				if line := st.step(t, c); si == 0 {
					trace = append(trace, line)
				} else if trace[i] != line {
					t.Fatalf("seed %d op %d: %s: %s, but radixvm: %s", seed, i, name, line, trace[i])
				}
			}
			st.finish(t, c)
			if live := w.alloc.Live(); live != 0 {
				t.Errorf("seed %d: %s: %d frames live after teardown", seed, name, live)
			}
		}
	}
	const ncores = 4
	for seed := range hw.Seeds(8) {
		var traces [ncores][]string
		for si, name := range []string{"radixvm", "linux", "bonsai"} {
			w := newWorld(ncores)
			root := systems(w)[si]
			var streams [ncores]*opStream
			for id := range streams {
				streams[id] = newOpStream(w, root, int64(seed)*ncores+int64(id), uint64(1<<20+id*window), window)
			}
			hw.RunGang(w.m, ncores, seed, func(c *hw.CPU, g *hw.Gang) {
				st := streams[c.ID()]
				for i := 0; i < 300; i++ {
					if line := st.step(t, c); si == 0 {
						traces[c.ID()] = append(traces[c.ID()], line)
					} else if traces[c.ID()][i] != line {
						t.Errorf("explorer seed %d, core %d, op %d: %s: %s, but radixvm: %s", seed, c.ID(), i, name, line, traces[c.ID()][i])
						return
					}
					w.rc.Maintain(c)
					g.Sync(c)
				}
			})
			if t.Failed() {
				t.FailNow()
			}
			c := m0(w)
			for _, st := range streams {
				st.spaces = st.spaces[1:] // the root is everyone's: torn down once below
				st.finish(t, c)
			}
			must(t, root.Munmap(c, 1<<20, ncores*window))
			w.quiesce()
			if live := w.alloc.Live(); live != 0 {
				t.Errorf("explorer seed %d: %s: %d frames live after teardown", seed, name, live)
			}
		}
	}
}

// opStream is one seeded stream of operations on [base, base+window) of a
// root space and the children it forks.
type opStream struct {
	w            *world
	rng          *rand.Rand
	base, window uint64
	file         *vm.File
	root         vm.System
	spaces       []vm.System // spaces[0] is the root, the rest its live descendants
}

var streamProts = []vm.Prot{0, vm.ProtRead, vm.ProtRead | vm.ProtWrite, vm.ProtRead | vm.ProtExec, vm.ProtRead | vm.ProtWrite | vm.ProtExec}

func newOpStream(w *world, root vm.System, seed int64, base, window uint64) *opStream {
	return &opStream{w: w, rng: rand.New(rand.NewSource(seed)), base: base, window: window,
		file: vm.NewFile(w.alloc), root: root, spaces: []vm.System{root}}
}

func (st *opStream) pick() (int, vm.System) {
	i := st.rng.Intn(len(st.spaces))
	return i, st.spaces[i]
}

func (st *opStream) span() (uint64, uint64) {
	lo := st.rng.Intn(int(st.window))
	return st.base + uint64(lo), uint64(st.rng.Intn(min(8, int(st.window)-lo) + 1)) // 0 pages: ErrRange everywhere
}

// step plays one operation on c and returns its description and outcome.
func (st *opStream) step(t *testing.T, c *hw.CPU) string {
	rng := st.rng
	var op string
	var err error
	switch r := rng.Intn(100); {
	case r < 15:
		at, sys := st.pick()
		vpn, n := st.span()
		opts := vm.MapOpts{Prot: streamProts[rng.Intn(len(streamProts))]}
		if rng.Intn(3) == 0 {
			opts.File, opts.Offset = st.file, uint64(rng.Intn(16))
		}
		op = fmt.Sprintf("%d.mmap(%d,%d,%v,file=%v@%d)", at, vpn-st.base, n, opts.Prot, opts.File != nil, opts.Offset)
		err = sys.Mmap(c, vpn, n, opts)
	case r < 25:
		at, sys := st.pick()
		vpn, n := st.span()
		op = fmt.Sprintf("%d.munmap(%d,%d)", at, vpn-st.base, n)
		err = sys.Munmap(c, vpn, n)
	case r < 35:
		at, sys := st.pick()
		vpn, n := st.span()
		prot := streamProts[rng.Intn(len(streamProts))]
		op = fmt.Sprintf("%d.mprotect(%d,%d,%v)", at, vpn-st.base, n, prot)
		err = sys.Mprotect(c, vpn, n, prot)
	case r < 80:
		at, sys := st.pick()
		vpn, write := st.base+uint64(rng.Intn(int(st.window))), rng.Intn(2) == 0
		op = fmt.Sprintf("%d.access(%d,%v)", at, vpn-st.base, write)
		err = sys.Access(c, vpn, write)
	case r < 90:
		at, sys := st.pick()
		vpn := st.base + uint64(rng.Intn(int(st.window)))
		op = fmt.Sprintf("%d.fetch(%d)", at, vpn-st.base)
		err = sys.Fetch(c, vpn)
	case r < 96:
		at, sys := st.pick()
		op = fmt.Sprintf("%d.fork", at)
		if len(st.spaces) < 6 {
			var child vm.System
			if child, err = sys.Fork(c); err == nil {
				st.spaces = append(st.spaces, child)
			}
		}
	default:
		if len(st.spaces) > 1 {
			at := 1 + rng.Intn(len(st.spaces)-1)
			op = fmt.Sprintf("%d.teardown", at)
			st.teardown(t, c, st.spaces[at])
			st.spaces = append(st.spaces[:at], st.spaces[at+1:]...)
		}
	}
	return fmt.Sprintf("%s = %v", op, err)
}

// teardown unmaps sys's whole window. A child forked from a root shared
// with other streams holds their windows too: it unmaps everything it
// inherited.
func (st *opStream) teardown(t *testing.T, c *hw.CPU, sys vm.System) {
	if sys == st.root {
		must(t, sys.Munmap(c, st.base, st.window))
		return
	}
	must(t, sys.Munmap(c, 1<<20, 1<<10))
}

// finish tears down every space the stream still holds, empties its file
// and drains the world.
func (st *opStream) finish(t *testing.T, c *hw.CPU) {
	for _, sys := range st.spaces {
		st.teardown(t, c, sys)
	}
	st.file.Truncate(c, 0)
	st.w.quiesce()
}
