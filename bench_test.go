// Top-level benchmarks of the host cost of the fork and spawn paths, the
// allocation-free map/unmap cycle and the radix tree's hot paths. The
// paper's figures come from `go run ./cmd/radixbench`, and
// scripts/fig-stability.sh diffs them byte for byte against figures/*.txt.
package radixvm_test

import (
	"testing"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/radix"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

const benchCores = 16

// benchEnv builds a machine-wide substrate. Each sub-benchmark constructs
// its environment and VM system once and reuses them across b.N iterations:
// every workload replaces or unmaps its own mappings, so iterating on a
// live system is sound, and it keeps the measurement on the VM operations
// rather than on rebuilding per-core page tables, TLBs, and refcache
// domains every iteration.
func benchEnv(n int) (*workload.Env, *mem.Allocator) {
	m := hw.NewMachine(hw.DefaultConfig(n))
	rc := refcache.New(m)
	return &workload.Env{M: m, RC: rc}, mem.NewAllocator(m, rc)
}

func makeSystem(name string, e *workload.Env, a *mem.Allocator) vm.System {
	switch name {
	case "radixvm":
		return vm.New(e.M, e.RC, a, nil)
	case "bonsai":
		return bonsaivm.New(e.M, e.RC, a)
	default:
		return linuxvm.New(e.M, e.RC, a)
	}
}

// BenchmarkFork runs the fork+COW cycling microbenchmark on the three VM
// systems (the fork experiment; the paper's evaluation forks only at Metis
// job start, so this is not a paper figure).
func BenchmarkFork(b *testing.B) {
	for _, sys := range []string{"radixvm", "bonsai", "linux"} {
		b.Run(sys, func(b *testing.B) {
			e, a := benchEnv(benchCores)
			s := makeSystem(sys, e, a)
			var pagesPerSec float64
			for i := 0; i < b.N; i++ {
				r := workload.Fork(e, s, benchCores, 40, 16)
				pagesPerSec = r.PerSecond()
			}
			b.ReportMetric(pagesPerSec/1e6, "Mpages/s")
		})
	}
	// ForkLatency isolates the latency of the Fork call itself — not a
	// throughput cycle — on a single core whose address space has 64k
	// faulted pages (128 leaf nodes). The generation fork copies one root
	// node and bumps a generation, so its vcycles/fork metric (~1.9 K) is
	// flat in address-space size.
	b.Run("ForkLatency", func(b *testing.B) {
		e, a := benchEnv(1)
		s := vm.New(e.M, e.RC, a, nil)
		c := e.M.CPU(0)
		const lo, npages = uint64(1 << 20), uint64(1 << 16)
		opts := vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}
		mustNilB(b, s.Mmap(c, lo, npages, opts))
		for v := lo; v < lo+npages; v++ {
			mustNilB(b, s.Access(c, v, true))
		}
		// One throwaway fork settles the lines the root copy touches.
		ch, err := s.Fork(c)
		mustNilB(b, err)
		ch.(vm.Exiter).Exit(c)
		e.RC.Maintain(c)
		var cycles uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			before := c.Now()
			ch, err := s.Fork(c)
			mustNilB(b, err)
			cycles = c.Now() - before
			b.StopTimer()
			ch.(vm.Exiter).Exit(c)
			e.RC.Maintain(c)
			b.StartTimer()
		}
		b.ReportMetric(float64(cycles), "vcycles/fork")
	})
}

// BenchmarkSpawn runs the spawn-server microbenchmark on the three VM
// systems: every core concurrently forks its own COW child of one shared
// parent per round, COW-touches its region in child and parent, and tears
// the child down (the concurrent-fork variant of BenchmarkFork).
func BenchmarkSpawn(b *testing.B) {
	for _, sys := range []string{"radixvm", "bonsai", "linux"} {
		b.Run(sys, func(b *testing.B) {
			e, a := benchEnv(benchCores)
			s := makeSystem(sys, e, a)
			var pagesPerSec float64
			for i := 0; i < b.N; i++ {
				r := workload.Spawn(e, s, benchCores, 40, 16)
				pagesPerSec = r.PerSecond()
			}
			b.ReportMetric(pagesPerSec/1e6, "Mpages/s")
		})
	}
}

// BenchmarkMmapMunmapCycle tracks the allocation-free control plane: the
// steady-state map/unmap cycle on RadixVM. Run with -benchmem; the
// allocation columns must read 0 (enforced by AllocsPerRun tests in
// internal/vm).
func BenchmarkMmapMunmapCycle(b *testing.B) {
	e, a := benchEnv(1)
	s := vm.New(e.M, e.RC, a, nil)
	c := e.M.CPU(0)
	const lo, npages = uint64(1 << 22), uint64(4)
	opts := vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}
	mustNilB(b, s.Mmap(c, lo, npages, opts))
	mustNilB(b, s.Munmap(c, lo, npages))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustNilB(b, s.Mmap(c, lo, npages, opts))
		mustNilB(b, s.Munmap(c, lo, npages))
	}
}

func mustNilB(b *testing.B, err error) {
	if err != nil {
		b.Fatal(err)
	}
}

// Micro-benchmarks for the radix tree's three hot paths. Run with
// -benchmem: the allocation columns are the point. Baselines recorded when
// the copy-on-diverge node representation landed (Xeon @ 2.10GHz, go1.24):
//
//	BenchmarkLookup      ~96 ns/op     0 B/op   0 allocs/op
//	BenchmarkLockPage   ~117 ns/op     0 B/op   0 allocs/op
//	BenchmarkExpand      ~44 µs/op    18 B/op   1 allocs/op
//
// For scale: the seed expanded a folded slot with 512 individual slotState
// allocations plus a ~20 KB node per expansion and allocated a pinned-node
// slice per Lookup; PR 1's eager nodes still cost ~18 KB of real memory
// each, where the compact uniform form now costs ~1.2 KB plus 240–500 B
// per diverged slot group. The AllocsPerRun tests in internal/radix enforce
// the budgets; these benchmarks track the constants.

func benchTree(b *testing.B) (*hw.Machine, *refcache.Refcache, *radix.Tree[int]) {
	b.Helper()
	m := hw.NewMachine(hw.DefaultConfig(1))
	rc := refcache.New(m)
	return m, rc, radix.NewCopy[int](m, rc)
}

// BenchmarkLookup measures the lock-free read path (pagefault's first
// half, Figure 7's reader side). Must be 0 allocs/op.
func BenchmarkLookup(b *testing.B) {
	m, _, tr := benchTree(b)
	c := m.CPU(0)
	v := 7
	for k := uint64(1); k <= 1000; k++ {
		r := tr.LockPage(c, k*2048)
		r.Entry(0).Set(&v)
		r.Unlock()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(c, (uint64(i)%1000+1)*2048)
	}
}

// BenchmarkLockPage measures the steady-state pagefault lock path on an
// existing leaf: LockPage + Value + Set + Unlock. The single allocation is
// the immutable slot state Set swaps in.
func BenchmarkLockPage(b *testing.B) {
	m, _, tr := benchTree(b)
	c := m.CPU(0)
	v := 5
	r := tr.LockPage(c, 4096)
	r.Entry(0).Set(&v)
	r.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr.LockPage(c, 4096)
		r.Entry(0).Set(r.Entry(0).Value())
		r.Unlock()
	}
}

// BenchmarkExpand measures folded-slot expansion — the paper's protocol of
// allocating a child with the fill value in all 512 slots and the lock bit
// propagated — plus the reclamation that recycles the nodes through the
// per-CPU pool (FlushAll runs the refcache epochs a kernel timer would).
func BenchmarkExpand(b *testing.B) {
	m, rc, tr := benchTree(b)
	c := m.CPU(0)
	v := 9
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr.LockRange(c, 512, 1024) // folds into one interior slot
		r.Entry(0).Set(&v)
		r.Unlock()
		r = tr.LockPage(c, 700) // expands the fold to a leaf
		r.Entry(0).Set(r.Entry(0).Value())
		r.Unlock()
		r = tr.LockRange(c, 512, 1024) // unmap everything again
		for j := range r.Entries() {
			r.Entry(j).Set(nil)
		}
		r.Unlock()
		rc.FlushAll()
	}
}
