package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"radixvm/internal/vm"
)

// TestSystemsAgreeOnOpStream applies one seeded single-core stream of
// mmap/munmap/mprotect/access/fetch/fork/child-access/teardown to radixvm,
// linux and bonsai, each in its own world. What must not depend on the
// system: the error every operation returns, and that no frame outlives
// teardown. What may: clocks, which is why none is compared.
func TestSystemsAgreeOnOpStream(t *testing.T) {
	const (
		base   = uint64(1 << 20)
		window = 48 // pages the stream plays in
		nops   = 3000
	)
	prots := []vm.Prot{0, vm.ProtRead, vm.ProtRead | vm.ProtWrite, vm.ProtRead | vm.ProtExec, vm.ProtRead | vm.ProtWrite | vm.ProtExec}
	for seed := int64(1); seed <= 4; seed++ {
		// trace[i] is op i's description and outcome on the first system;
		// the others must reproduce it line for line.
		var trace []string
		for si, name := range []string{"radixvm", "linux", "bonsai"} {
			w := newWorld(1)
			c := m0(w)
			root := systems(w)[si]
			file := vm.NewFile(w.alloc)
			spaces := []vm.System{root} // spaces[0] is the root, the rest its live descendants
			rng := rand.New(rand.NewSource(seed))
			pick := func() (int, vm.System) {
				i := rng.Intn(len(spaces))
				return i, spaces[i]
			}
			span := func() (uint64, uint64) {
				lo := uint64(rng.Intn(window))
				return base + lo, uint64(rng.Intn(min(8, window-int(lo)) + 1)) // 0 pages: ErrRange everywhere
			}
			teardown := func(sys vm.System) {
				must(t, sys.Munmap(c, base, window))
			}
			for i := 0; i < nops; i++ {
				var op string
				var err error
				switch r := rng.Intn(100); {
				case r < 15:
					at, sys := pick()
					vpn, n := span()
					opts := vm.MapOpts{Prot: prots[rng.Intn(len(prots))]}
					if rng.Intn(3) == 0 {
						opts.File, opts.Offset = file, uint64(rng.Intn(16))
					}
					op = fmt.Sprintf("%d.mmap(%d,%d,%v,file=%v@%d)", at, vpn-base, n, opts.Prot, opts.File != nil, opts.Offset)
					err = sys.Mmap(c, vpn, n, opts)
				case r < 25:
					at, sys := pick()
					vpn, n := span()
					op = fmt.Sprintf("%d.munmap(%d,%d)", at, vpn-base, n)
					err = sys.Munmap(c, vpn, n)
				case r < 35:
					at, sys := pick()
					vpn, n := span()
					prot := prots[rng.Intn(len(prots))]
					op = fmt.Sprintf("%d.mprotect(%d,%d,%v)", at, vpn-base, n, prot)
					err = sys.Mprotect(c, vpn, n, prot)
				case r < 80:
					at, sys := pick()
					vpn, write := base+uint64(rng.Intn(window)), rng.Intn(2) == 0
					op = fmt.Sprintf("%d.access(%d,%v)", at, vpn-base, write)
					err = sys.Access(c, vpn, write)
				case r < 90:
					at, sys := pick()
					vpn := base + uint64(rng.Intn(window))
					op = fmt.Sprintf("%d.fetch(%d)", at, vpn-base)
					err = sys.Fetch(c, vpn)
				case r < 96:
					at, sys := pick()
					op = fmt.Sprintf("%d.fork", at)
					if len(spaces) < 6 {
						var child vm.System
						if child, err = sys.Fork(c); err == nil {
							spaces = append(spaces, child)
						}
					}
				default:
					if len(spaces) > 1 {
						at := 1 + rng.Intn(len(spaces)-1)
						op = fmt.Sprintf("%d.teardown", at)
						teardown(spaces[at])
						spaces = append(spaces[:at], spaces[at+1:]...)
					}
				}
				line := fmt.Sprintf("%s = %v", op, err)
				if si == 0 {
					trace = append(trace, line)
				} else if trace[i] != line {
					t.Fatalf("seed %d op %d: %s: %s, but radixvm: %s", seed, i, name, line, trace[i])
				}
			}
			for _, sys := range spaces {
				teardown(sys)
			}
			file.Truncate(c, 0)
			w.quiesce()
			if live := w.alloc.Live(); live != 0 {
				t.Errorf("seed %d: %s: %d frames live after teardown", seed, name, live)
			}
		}
	}
}
