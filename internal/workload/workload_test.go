package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

func newEnv(ncores int) (*Env, *mem.Allocator) {
	m := hw.NewMachine(hw.TestConfig(ncores))
	rc := refcache.New(m)
	return &Env{M: m, RC: rc}, mem.NewAllocator(m, rc)
}

func TestLocalRunsOnAllSystems(t *testing.T) {
	for _, mk := range []func(*Env, *mem.Allocator) vm.System{
		func(e *Env, a *mem.Allocator) vm.System { return vm.New(e.M, e.RC, a, nil) },
		func(e *Env, a *mem.Allocator) vm.System { return linuxvm.New(e.M, e.RC, a) },
		func(e *Env, a *mem.Allocator) vm.System { return bonsaivm.New(e.M, e.RC, a) },
	} {
		env, alloc := newEnv(2)
		sys := mk(env, alloc)
		r := Local(env, sys, 2, 30, 1)
		if r.PageWrites != 60 {
			t.Fatalf("%s: PageWrites = %d, want 60", sys.Name(), r.PageWrites)
		}
		if r.PerSecond() <= 0 {
			t.Fatalf("%s: non-positive throughput", sys.Name())
		}
	}
}

func TestPipelineShootsDownOncePerRegion(t *testing.T) {
	// Paper §5.3: "every munmap results in exactly one remote TLB
	// shootdown" in the pipeline benchmark on RadixVM.
	env, alloc := newEnv(2)
	sys := vm.New(env.M, env.RC, alloc, nil)
	const iters = 20
	r := Pipeline(env, sys, 2, iters, 4)
	if r.PageWrites != 2*iters*4*2 {
		t.Fatalf("PageWrites = %d", r.PageWrites)
	}
	// Each of the 2*iters munmaps interrupts exactly the producing core.
	ipis := r.Stats.IPIsSent
	if ipis != 2*iters {
		t.Errorf("IPIs = %d, want %d (one per munmap)", ipis, 2*iters)
	}
}

// TestPipelineBackpressure is the regression for the hand-off queue that had
// no bound: at 40 cores a producer lapped its consumer past the eight VA
// slots, the consumer's munmap of the older hand-off tore down the newer
// mapping, and the next access died with a segmentation violation — on all
// three systems, from 30 cores at 50 iterations. Pipeline itself asserts that
// no region still in flight is mapped over; here it must run to the end and
// have written every page twice.
func TestPipelineBackpressure(t *testing.T) {
	const cores, iters, pages = 40, 1000, 1
	for _, mk := range []func(*Env, *mem.Allocator) vm.System{
		func(e *Env, a *mem.Allocator) vm.System { return vm.New(e.M, e.RC, a, nil) },
		func(e *Env, a *mem.Allocator) vm.System { return linuxvm.New(e.M, e.RC, a) },
		func(e *Env, a *mem.Allocator) vm.System { return bonsaivm.New(e.M, e.RC, a) },
	} {
		m := hw.NewMachine(hw.DefaultConfig(cores))
		rc := refcache.New(m)
		env := &Env{M: m, RC: rc}
		sys := mk(env, mem.NewAllocator(m, rc))
		if r := Pipeline(env, sys, cores, iters, pages); r.PageWrites != cores*iters*pages*2 {
			t.Errorf("%s: PageWrites = %d, want %d", sys.Name(), r.PageWrites, cores*iters*pages*2)
		}
	}
}

func TestLocalRadixVMSendsNoIPIs(t *testing.T) {
	// Use the realistic epoch length: with the test config's tiny epochs
	// Refcache flushes every couple of iterations and its (by design)
	// small constant maintenance traffic dominates the measurement.
	m := hw.NewMachine(hw.DefaultConfig(4))
	rc := refcache.New(m)
	env := &Env{M: m, RC: rc}
	sys := vm.New(env.M, env.RC, mem.NewAllocator(m, rc), nil)
	r := Local(env, sys, 4, 50, 1)
	if r.Stats.IPIsSent != 0 {
		t.Errorf("local benchmark sent %d IPIs, want 0", r.Stats.IPIsSent)
	}
	if r.Stats.Transfers != 0 {
		t.Errorf("local benchmark moved %d lines, want 0", r.Stats.Transfers)
	}
}

func TestGlobalAllPagesWritten(t *testing.T) {
	env, alloc := newEnv(3)
	sys := vm.New(env.M, env.RC, alloc, nil)
	r := Global(env, sys, 3, 2, 4)
	// 3 cores x 2 iters x (3*4 pages each) writes.
	if want := uint64(3 * 2 * 12); r.PageWrites != want {
		t.Fatalf("PageWrites = %d, want %d", r.PageWrites, want)
	}
}

// Global's access order is rand.Perm's, filled into one buffer per core: the
// same permutation, and the generator left where Perm leaves it, so every
// later draw (and every virtual figure) is unchanged.
func TestPermMatchesRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 16, 1024} {
		m := make([]int, n)
		for seed := int64(1); seed <= 8; seed++ {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			perm(got, m)
			if w := want.Perm(n); !slices.Equal(m, w) {
				t.Fatalf("n=%d seed=%d: perm = %v, want %v", n, seed, m, w)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("n=%d seed=%d: next draw %d after perm, %d after Perm", n, seed, g, w)
			}
		}
	}
}

func TestProtectRunsOnAllSystems(t *testing.T) {
	for _, mk := range []func(*Env, *mem.Allocator) vm.System{
		func(e *Env, a *mem.Allocator) vm.System { return vm.New(e.M, e.RC, a, nil) },
		func(e *Env, a *mem.Allocator) vm.System { return linuxvm.New(e.M, e.RC, a) },
		func(e *Env, a *mem.Allocator) vm.System { return bonsaivm.New(e.M, e.RC, a) },
	} {
		env, alloc := newEnv(2)
		sys := mk(env, alloc)
		r := Protect(env, sys, 2, 10, 4)
		if want := uint64(2 * 10 * 4); r.PageWrites != want {
			t.Fatalf("%s: PageWrites = %d, want %d", sys.Name(), r.PageWrites, want)
		}
		if r.Stats.Mprotects != 2*10*2 {
			t.Fatalf("%s: Mprotects = %d, want %d", sys.Name(), r.Stats.Mprotects, 2*10*2)
		}
		// Every post-revoke write is a protection fault that lazily
		// upgrades the translation.
		if r.Stats.ProtFaults == 0 {
			t.Fatalf("%s: no protection faults recorded", sys.Name())
		}
	}
}

func TestProtectRadixVMSendsNoIPIs(t *testing.T) {
	// §3.4's targeted write-protect shootdown: regions only their own core
	// ever touched revoke rights without interrupting anyone.
	m := hw.NewMachine(hw.DefaultConfig(4))
	rc := refcache.New(m)
	env := &Env{M: m, RC: rc}
	sys := vm.New(env.M, env.RC, mem.NewAllocator(m, rc), nil)
	r := Protect(env, sys, 4, 30, 4)
	if r.Stats.IPIsSent != 0 {
		t.Errorf("protect benchmark sent %d IPIs on radixvm, want 0", r.Stats.IPIsSent)
	}
	if r.Stats.Transfers != 0 {
		t.Errorf("protect benchmark moved %d lines, want 0", r.Stats.Transfers)
	}
}

func TestProtectBaselinesBroadcast(t *testing.T) {
	// The contrast: the shared-page-table baselines must interrupt every
	// active core on each revoking mprotect.
	env, alloc := newEnv(4)
	sys := linuxvm.New(env.M, env.RC, alloc)
	r := Protect(env, sys, 4, 10, 4)
	if r.Stats.IPIsSent == 0 {
		t.Error("linux protect benchmark sent no IPIs; broadcast expected")
	}
}

func TestForkRunsOnAllSystems(t *testing.T) {
	for _, mk := range []func(*Env, *mem.Allocator) vm.System{
		func(e *Env, a *mem.Allocator) vm.System { return vm.New(e.M, e.RC, a, nil) },
		func(e *Env, a *mem.Allocator) vm.System { return linuxvm.New(e.M, e.RC, a) },
		func(e *Env, a *mem.Allocator) vm.System { return bonsaivm.New(e.M, e.RC, a) },
	} {
		env, alloc := newEnv(2)
		sys := mk(env, alloc)
		r := Fork(env, sys, 2, 10, 4)
		if want := uint64(2 * 10 * 4); r.PageWrites != want {
			t.Fatalf("%s: PageWrites = %d, want %d", sys.Name(), r.PageWrites, want)
		}
		if r.Stats.Forks != 10 {
			t.Fatalf("%s: Forks = %d, want 10", sys.Name(), r.Stats.Forks)
		}
		// Every measured child write of a parent-faulted page is a COW
		// break (the parent faulted everything in during warmup).
		if r.Stats.COWBreaks != r.PageWrites {
			t.Fatalf("%s: COWBreaks = %d, want %d", sys.Name(), r.Stats.COWBreaks, r.PageWrites)
		}
	}
}

func TestForkRadixVMSendsNoIPIs(t *testing.T) {
	// The fork+COW cycle on RadixVM sends no IPI on behalf of a page: each
	// child's COW break hits only per-page metadata and a page table its own
	// core owns. Every IPI there is belongs to a Reset round, and a Reset
	// interrupts only the cores that hold translations. The derivation: the
	// warm-up round's fork swept the parent off every core and no measured
	// round touches the parent again, so the iters forks find no holder and
	// run no round at all; every core faults its region into each child, so
	// the iters exits interrupt the cores-1 others, once each.
	const cores, iters = 4, 20
	m := hw.NewMachine(hw.DefaultConfig(cores))
	rc := refcache.New(m)
	env := &Env{M: m, RC: rc}
	sys := vm.New(env.M, env.RC, mem.NewAllocator(m, rc), nil)
	r := Fork(env, sys, cores, iters, 4)
	if want := uint64(iters); r.Stats.Shootdowns != want {
		t.Errorf("fork benchmark ran %d shootdown rounds on radixvm, want %d (exits only)", r.Stats.Shootdowns, want)
	}
	if want := uint64(iters * (cores - 1)); r.Stats.IPIsSent != want {
		t.Errorf("fork benchmark sent %d IPIs on radixvm, want %d (each exit to the %d other holders)", r.Stats.IPIsSent, want, cores-1)
	}
}

func TestForkBaselinesBroadcast(t *testing.T) {
	// The contrast: every baseline COW break must broadcast a TLB flush
	// to all cores using the child (the shared table has no sharer sets).
	for _, mk := range []func(*Env, *mem.Allocator) vm.System{
		func(e *Env, a *mem.Allocator) vm.System { return linuxvm.New(e.M, e.RC, a) },
		func(e *Env, a *mem.Allocator) vm.System { return bonsaivm.New(e.M, e.RC, a) },
	} {
		env, alloc := newEnv(4)
		sys := mk(env, alloc)
		r := Fork(env, sys, 4, 10, 4)
		if r.Stats.IPIsSent == 0 {
			t.Errorf("%s fork benchmark sent no IPIs; per-break broadcast expected", sys.Name())
		}
	}
}

func TestSpawnRunsOnAllSystems(t *testing.T) {
	for _, mk := range []func(*Env, *mem.Allocator) vm.System{
		func(e *Env, a *mem.Allocator) vm.System { return vm.New(e.M, e.RC, a, nil) },
		func(e *Env, a *mem.Allocator) vm.System { return linuxvm.New(e.M, e.RC, a) },
		func(e *Env, a *mem.Allocator) vm.System { return bonsaivm.New(e.M, e.RC, a) },
	} {
		env, alloc := newEnv(2)
		sys := mk(env, alloc)
		r := Spawn(env, sys, 2, 10, 4)
		// Each core, each round: 4 child writes + 4 parent re-dirties.
		if want := uint64(2 * 10 * 8); r.PageWrites != want {
			t.Fatalf("%s: PageWrites = %d, want %d", sys.Name(), r.PageWrites, want)
		}
		// Every core forks its own child every round.
		if want := uint64(2 * 10); r.Stats.Forks != want {
			t.Fatalf("%s: Forks = %d, want %d", sys.Name(), r.Stats.Forks, want)
		}
		// Every measured write — child and parent side alike — is a COW
		// break: the child inherits everything shared, and the parent's
		// re-dirtied pages were re-COWed by the round's forks.
		if r.Stats.COWBreaks != r.PageWrites {
			t.Fatalf("%s: COWBreaks = %d, want %d", sys.Name(), r.Stats.COWBreaks, r.PageWrites)
		}
	}
}

func TestSpawnShootdownsTargetedOnRadixVM(t *testing.T) {
	// Spawn on RadixVM: each fork interrupts the cores that hold translations
	// of the parent (Reset); a child only its own core ever ran on exits
	// without interrupting anyone; and the COW breaks on both sides send
	// nothing at all (the only stale translation lives on the breaking core
	// itself). The derivation: a round has no yield point inside it, so the
	// schedule runs the cores' rounds one after another, and a core holds the
	// parent from its re-dirty until the next fork anywhere sweeps it. Each
	// fork therefore finds exactly one holder — the core whose round ran just
	// before — and sends one IPI, unless that core is the forking core itself,
	// which has no one to interrupt. The schedule runs one core's rounds back
	// to back exactly once: the warm-up's throwaway rounds all start at the
	// barrier's instant and run in core order, and core 3, which ran the last
	// of them, then has the lowest clock and forks first in the measured
	// loop. After that the cores take turns (2, 1, 0, 3, ...). So every fork
	// but that first one sends exactly one IPI.
	const cores, iters = 4, 20
	m := hw.NewMachine(hw.DefaultConfig(cores))
	rc := refcache.New(m)
	env := &Env{M: m, RC: rc}
	sys := vm.New(env.M, env.RC, mem.NewAllocator(m, rc), nil)
	r := Spawn(env, sys, cores, iters, 4)
	if want := uint64(cores*iters - 1); r.Stats.Shootdowns != want {
		t.Errorf("radixvm spawn ran %d shootdown rounds, want %d (one per fork but the first)", r.Stats.Shootdowns, want)
	}
	if want := uint64(cores*iters - 1); r.Stats.IPIsSent != want {
		t.Errorf("radixvm spawn sent %d IPIs, want %d (one holder per fork but the first)", r.Stats.IPIsSent, want)
	}
}

func TestSpawnBaselinesBroadcast(t *testing.T) {
	// The contrast: the baselines broadcast to every core using the parent
	// on each fork's write-protect pass AND on each parent-side COW break.
	const cores, iters = 4, 10
	for _, mk := range []func(*Env, *mem.Allocator) vm.System{
		func(e *Env, a *mem.Allocator) vm.System { return linuxvm.New(e.M, e.RC, a) },
		func(e *Env, a *mem.Allocator) vm.System { return bonsaivm.New(e.M, e.RC, a) },
	} {
		env, alloc := newEnv(cores)
		sys := mk(env, alloc)
		r := Spawn(env, sys, cores, iters, 4)
		// At minimum, every fork and every parent-side break broadcasts to
		// the other cores (cores-1 IPIs each).
		min := uint64(cores*iters) * uint64(cores-1)
		if r.Stats.IPIsSent < min {
			t.Errorf("%s spawn sent %d IPIs, want >= %d (per-fork broadcasts)", sys.Name(), r.Stats.IPIsSent, min)
		}
	}
}

func TestSpawnScalesOnRadixVMNotBaselines(t *testing.T) {
	// The headline: concurrent per-core fork/exit throughput grows with
	// cores on RadixVM (a fork copies one node, COW breaks stay per-page
	// and targeted) while the Linux baseline
	// stays near-flat on its address-space lock and broadcasts.
	throughput := func(mk func(*Env, *mem.Allocator) vm.System, cores int) float64 {
		m := hw.NewMachine(hw.DefaultConfig(cores))
		rc := refcache.New(m)
		env := &Env{M: m, RC: rc}
		r := Spawn(env, mk(env, mem.NewAllocator(m, rc)), cores, 30, 8)
		return r.PerSecond()
	}
	radix := func(e *Env, a *mem.Allocator) vm.System { return vm.New(e.M, e.RC, a, nil) }
	linux := func(e *Env, a *mem.Allocator) vm.System { return linuxvm.New(e.M, e.RC, a) }
	if one, eight := throughput(radix, 1), throughput(radix, 8); eight < 2.5*one {
		t.Errorf("radixvm spawn did not scale: %.2f -> %.2f M pages/s from 1 -> 8 cores", one/1e6, eight/1e6)
	}
	if one, eight := throughput(linux, 1), throughput(linux, 8); eight > 2.2*one {
		t.Errorf("linux spawn scaled unexpectedly: %.2f -> %.2f M pages/s from 1 -> 8 cores", one/1e6, eight/1e6)
	}
}

func TestLocalScalesLinearlyOnRadixVM(t *testing.T) {
	// The Figure 5 headline in miniature: per-op virtual cost must stay
	// ~flat from 1 to 8 cores on RadixVM.
	perOp := func(cores int) float64 {
		env, alloc := newEnv(cores)
		sys := vm.New(env.M, env.RC, alloc, nil)
		r := Local(env, sys, cores, 60, 1)
		return float64(r.Cycles) * float64(cores) / float64(r.PageWrites)
	}
	one, eight := perOp(1), perOp(8)
	if eight > one*1.3 {
		t.Errorf("local did not scale: per-op cost %0.0f -> %0.0f cycles", one, eight)
	}
}

func TestLocalCollapsesOnLinux(t *testing.T) {
	// And the contrast: Linux's per-op cost must grow markedly with
	// cores (the address space lock serializes everything).
	perOp := func(cores int) float64 {
		env, alloc := newEnv(cores)
		sys := linuxvm.New(env.M, env.RC, alloc)
		r := Local(env, sys, cores, 60, 1)
		return float64(r.Cycles) * float64(cores) / float64(r.PageWrites)
	}
	one, eight := perOp(1), perOp(8)
	if eight < one*2 {
		t.Errorf("linux local did not collapse: per-op cost %0.0f -> %0.0f cycles", one, eight)
	}
}

// segvOnce is a system whose nth Access on one core fails with ErrSegv.
type segvOnce struct {
	vm.System
	core, n int
}

func (s *segvOnce) Access(c *hw.CPU, vpn uint64, write bool) error {
	if c.ID() == s.core {
		if s.n--; s.n == 0 {
			return vm.ErrSegv
		}
	}
	return s.System.Access(c, vpn, write)
}

// TestFailureNamesTheOp: a workload op that fails panics out of the
// schedule with an error that wraps the op's and names the system, the core,
// the op and its VPN, so the failing event can be found in a rerun.
func TestFailureNamesTheOp(t *testing.T) {
	env, alloc := newEnv(2)
	sys := &segvOnce{System: vm.New(env.M, env.RC, alloc, nil), core: 1, n: 3}
	defer func() {
		err, ok := recover().(error)
		if !ok || !errors.Is(err, vm.ErrSegv) {
			t.Fatalf("recovered %v, want an error wrapping vm.ErrSegv", err)
		}
		// Core 1's third access is its third warm-up write of its one page.
		for _, want := range []string{"radixvm", "core 1", "access", fmt.Sprintf("vpn %#x", spread(1))} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	}()
	Local(env, sys, 2, 5, 1)
	t.Fatal("Local returned despite a failing access")
}
