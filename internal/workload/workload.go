// Package workload implements the paper's three microbenchmarks (§5.1),
// each parameterized over the VM system and core count:
//
//   - local: each thread repeatedly mmaps a private 4 KB region, writes
//     it, and munmaps it — the per-thread memory pool pattern.
//   - pipeline: each thread mmaps a region, writes it, and hands it to
//     the next thread, which writes it again and munmaps it — the
//     streaming/MapReduce hand-off pattern.
//   - global: each thread mmaps a 64 KB piece of one large region, then
//     all threads access all pages in random order — the shared-library /
//     shared-hash-table pattern.
//
// The reported metric is the paper's: total page writes per second (in
// virtual time). On RadixVM each write is a fault even if another core
// already allocated the page, because page tables are per-core.
package workload

import (
	"fmt"
	"math/rand"

	"radixvm/internal/hw"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

// Env bundles the machine-wide substrate a workload runs on.
type Env struct {
	M  *hw.Machine
	RC *refcache.Refcache
}

// Result reports one workload run.
type Result struct {
	Name       string
	System     string
	Cores      int
	PageWrites uint64
	Cycles     uint64 // virtual wall-clock consumed
	Stats      hw.Stats
}

// PerSecond converts the page-write count into the paper's pages/sec at
// the modeled 2.4 GHz clock.
func (r Result) PerSecond() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.PageWrites) * 2.4e9 / float64(r.Cycles)
}

// String is also what %+v prints for a Result, a FleetResult and a
// FileServeResult, which embed it: name, system, cores and throughput, not
// their fields. bench/ fingerprints a run by that print, so it must stay a
// pure function of the run. Without this method %+v would print
// FleetResult's unexported process pointers, which differ every run.
func (r Result) String() string {
	return fmt.Sprintf("%-8s %-8s %2d cores: %8.2fM page writes/sec",
		r.Name, r.System, r.Cores, r.PerSecond()/1e6)
}

// Check is every workload's checked step: a nil err passes, and any other
// panics with an error that wraps err and names the system, the core, the
// op, its VPN and the core's virtual clock. The schedule is deterministic, so
// the clock pins the failing event in a rerun. A panic is the only way out:
// the workloads return a bare result, and a scheduled proc's panic reaches
// the caller through hw.Sched.Run.
func Check(sys vm.System, c *hw.CPU, op string, vpn uint64, err error) {
	if err != nil {
		fail(sys, c, op, vpn, err)
	}
}

// fail is Check's failure path, kept out of line so that Check inlines.
func fail(sys vm.System, c *hw.CPU, op string, vpn uint64, err error) {
	panic(fmt.Errorf("%s: core %d %s vpn %#x at cycle %d: %w", sys.Name(), c.ID(), op, vpn, c.Now(), err))
}

// Populate maps [lo, lo+pages) read-write on c and write-faults its first
// touched pages, returning the pages written.
func Populate(sys vm.System, c *hw.CPU, lo, pages, touched uint64) uint64 {
	Check(sys, c, "mmap", lo, sys.Mmap(c, lo, pages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	return touch(sys, c, lo, touched, true)
}

// touch accesses [lo, lo+pages) of sys on c, returning the pages touched.
func touch(sys vm.System, c *hw.CPU, lo, pages uint64, write bool) uint64 {
	for v := lo; v < lo+pages; v++ {
		Check(sys, c, "access", v, sys.Access(c, v, write))
	}
	return pages
}

// fork forks sys on c.
func fork(sys vm.System, c *hw.CPU) vm.System {
	ch, err := sys.Fork(c)
	Check(sys, c, "fork", 0, err)
	return ch
}

// spread places core id's private region in its own radix subtree and on
// its own root cache line, mirroring how real address spaces give threads
// disjoint arenas.
func spread(id int) uint64 { return uint64(id*4+4) << 18 }

// run executes a fleet of cores processes, one pinned per core, on the
// process scheduler, measures virtual time, and gathers stats: spawn puts
// core id's proc on s, counting the page writes it makes into *writes. warm
// runs once per core before measurement.
//
// A fixed gang is the degenerate fleet: the scheduler dispatches each
// core's single pinned proc at the same virtual instants the old per-
// workload gang loops synced at (a yield is where the bodies called
// g.Sync), charges no switch cost for redispatching the same proc, and
// therefore reproduces the pre-scheduler figures byte-for-byte. Figures
// run under the deterministic schedule so every cell is a pure function
// of the op stream — byte-stable across runs and byte-gateable in CI.
// hw.RunGang's explorer drives only tests, which want many interleavings
// and keep no virtual time.
//
// A measured body that yields only between operations (rounds, Global) is a
// step proc: the loop calls it once per yield point, which costs a fraction
// of a coroutine's switch and leaves every clock and count the same. The
// bodies that need a stack across a yield (Pipeline's hand-off loop, the
// warm phases) are coroutines.
func run(env *Env, name string, sys vm.System, cores int, warm func(tc *hw.Ctx), spawn func(s *hw.Sched, id int, writes *uint64)) Result {
	var writes [hw.MaxCores]uint64
	if warm != nil {
		s := hw.NewSched(0)
		for i := 0; i < cores; i++ {
			s.Spawn(i, warm)
		}
		s.Run(env.M, cores, 4000)
	}
	env.M.ResetStats()
	start := env.M.MaxClock()
	s := hw.NewSched(0)
	for i := 0; i < cores; i++ {
		spawn(s, i, &writes[i])
	}
	s.Run(env.M, cores, 4000)
	var total uint64
	for i := 0; i < cores; i++ {
		total += writes[i]
	}
	return Result{
		Name:       name,
		System:     sys.Name(),
		Cores:      cores,
		PageWrites: total,
		Cycles:     env.M.MaxClock() - start,
		Stats:      env.M.TotalStats(),
	}
}

// rounds is a measured body: iters rounds, Refcache maintenance and a yield
// after each. A round is its phases in order, every core meeting at bar
// between two of them; the body is a step proc, one call per phase.
func rounds(env *Env, iters int, bar *hw.Barrier, phases ...func(tc *hw.Ctx) uint64) func(s *hw.Sched, id int, writes *uint64) {
	return func(s *hw.Sched, id int, writes *uint64) {
		k, j := 0, 0 // rounds done, phases of this one done
		s.SpawnStep(id, func(tc *hw.Ctx) hw.Step {
			if k == iters {
				return hw.StepDone
			}
			*writes += phases[j](tc)
			if j++; j < len(phases) {
				return tc.StepWait(bar)
			}
			k, j = k+1, 0
			env.RC.Maintain(tc.CPU())
			return hw.StepYield
		})
	}
}

// Local runs the local microbenchmark: iters rounds of mmap/write/munmap
// of a regionPages-page private region per core (the paper uses one 4 KB
// page to maximally stress the VM).
func Local(env *Env, sys vm.System, cores int, iters int, regionPages uint64) Result {
	round := func(tc *hw.Ctx) uint64 {
		c := tc.CPU()
		lo := spread(c.ID())
		writes := Populate(sys, c, lo, regionPages, regionPages)
		Check(sys, c, "munmap", lo, sys.Munmap(c, lo, regionPages))
		return writes
	}
	warm := func(tc *hw.Ctx) {
		for k := 0; k < 3; k++ {
			round(tc)
		}
	}
	return run(env, "local", sys, cores, warm, rounds(env, iters, nil, round))
}

// Pipeline runs the pipeline microbenchmark: core i maps and writes a
// region, then passes it to core (i+1) mod n, which writes it again and
// unmaps it.
func Pipeline(env *Env, sys vm.System, cores int, iters int, regionPages uint64) Result {
	// Hand-off queues, one per receiving core, bounded as a real pipeline's
	// are. The handoff carries the producer's virtual time so the consumer
	// observes proper causality. Delivery is the scheduler's park/wake
	// protocol: the producer Parks while the consumer's inbox is full, then
	// enqueues and Wakes the consumer's proc; a consumer with an empty inbox
	// Parks, and Wakes its producer after each dequeue. Every core produces
	// one hand-off and consumes one per iteration, so at most cores are in
	// flight and a full inbox always has a consumer draining it.
	const (
		pipeDepth = 4
		// Each in-flight region gets a distinct address, so that no VA is
		// reused before its munmap: pipeDepth queued, one being consumed.
		pipeSlots = 8
	)
	type handoff struct {
		lo   uint64
		t    uint64
		slot int
	}
	inbox := make([][]handoff, cores)
	// live[i][slot]: core i's region at that slot is mapped and its consumer
	// has not unmapped it yet.
	live := make([][pipeSlots]bool, cores)
	body := func(tc *hw.Ctx) uint64 {
		c := tc.CPU()
		s := tc.Sched()
		id := c.ID()
		next, prev := (id+1)%cores, (id+cores-1)%cores
		var writes uint64
		for k := 0; k < iters; k++ {
			slot := k % pipeSlots
			lo := spread(id) + uint64(slot)*regionPages*2
			if live[id][slot] {
				panic(fmt.Sprintf("pipeline: %s core %d iteration %d maps %#x over a hand-off still in flight",
					sys.Name(), id, k, lo))
			}
			live[id][slot] = true
			writes += Populate(sys, c, lo, regionPages, regionPages)
			for len(inbox[next]) >= pipeDepth {
				tc.Park()
			}
			inbox[next] = append(inbox[next], handoff{lo: lo, t: c.Now(), slot: slot})
			s.Wake(s.Proc(uint64(next))) // run()'s pinned procs: seq == core ID
			for len(inbox[id]) == 0 {
				tc.Park()
			}
			in := inbox[id][0]
			inbox[id] = inbox[id][:copy(inbox[id], inbox[id][1:])]
			s.Wake(s.Proc(uint64(prev)))
			c.AdvanceTo(in.t + 200) // cross-core queue hand-off
			writes += touch(sys, c, in.lo, regionPages, true)
			Check(sys, c, "munmap", in.lo, sys.Munmap(c, in.lo, regionPages))
			live[prev][in.slot] = false
			env.RC.Maintain(c)
			tc.Yield()
		}
		return writes
	}
	return run(env, "pipeline", sys, cores, nil, func(s *hw.Sched, id int, writes *uint64) {
		s.Spawn(id, func(tc *hw.Ctx) { *writes = body(tc) })
	})
}

// Global runs the global microbenchmark: each thread maps its own
// piecePages-page slice of one large shared region (the paper uses 64 KB
// per thread), all threads write every page of the whole region in random
// order, and each thread unmaps its piece; repeat.
func Global(env *Env, sys vm.System, cores int, iters int, piecePages uint64) Result {
	const regionBase = uint64(3) << 32 // shared region, distinct from spreads
	bar := hw.NewBarrier(cores)
	total := piecePages * uint64(cores)
	return run(env, "global", sys, cores, nil, func(s *hw.Sched, id int, writes *uint64) {
		rng := rand.New(rand.NewSource(int64(id + 1)))
		mine := regionBase + uint64(id)*piecePages
		order := make([]int, total)
		// A round is map, wait, one access per step in a fresh random
		// order, wait, unmap and maintain, wait. Yield every access:
		// contended fill faults cost thousands of cycles each, so coarser
		// yields would let one core run many of them ahead of the others
		// before the loop picks the lowest clock again.
		k, phase, i := 0, 0, 0 // rounds done, where this one is, accesses done
		s.SpawnStep(id, func(tc *hw.Ctx) hw.Step {
			c := tc.CPU()
			switch phase {
			case 0:
				if k == iters {
					return hw.StepDone
				}
				Check(sys, c, "mmap", mine, sys.Mmap(c, mine, piecePages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
				phase, i = 1, 0
				return tc.StepWait(bar)
			case 1:
				if i == 0 {
					perm(rng, order)
				}
				if i == len(order) {
					phase = 2
					return tc.StepWait(bar)
				}
				v := regionBase + uint64(order[i])
				Check(sys, c, "access", v, sys.Access(c, v, true))
				*writes++
				i++
				return hw.StepYield
			default:
				Check(sys, c, "munmap", mine, sys.Munmap(c, mine, piecePages))
				env.RC.Maintain(c)
				k, phase = k+1, 0
				return tc.StepWait(bar)
			}
		})
	})
}

// perm fills m with rng.Perm(len(m)) — the same permutation from the same
// draws, leaving rng in the same state — without allocating a slice per call.
func perm(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// Protect runs the mprotect microbenchmark, the write-protect analogue of
// the local benchmark (the pattern of generational GCs, soft-dirty page
// tracking, and copy-on-write snapshotting): each core maps and faults in a
// private region once, then repeatedly write-protects it, reads every page
// (re-filling downgraded translations through hardware walks), re-enables
// writes, and writes every page (each first write is a protection fault
// that lazily upgrades the translation). On RadixVM the revoke shootdown is
// targeted — a region only its own core touched interrupts nobody — while
// the baselines broadcast TLB flushes to every active core per mprotect.
func Protect(env *Env, sys vm.System, cores int, iters int, regionPages uint64) Result {
	cycle := func(tc *hw.Ctx) uint64 {
		c := tc.CPU()
		lo := spread(c.ID())
		Check(sys, c, "mprotect", lo, sys.Mprotect(c, lo, regionPages, vm.ProtRead))
		touch(sys, c, lo, regionPages, false)
		Check(sys, c, "mprotect", lo, sys.Mprotect(c, lo, regionPages, vm.ProtRead|vm.ProtWrite))
		return touch(sys, c, lo, regionPages, true)
	}
	warm := func(tc *hw.Ctx) {
		// Map and fault the region once (the structures it expands are
		// shared setup, not the steady state being measured), then run
		// one cycle so every line the loop touches has settled.
		c := tc.CPU()
		Populate(sys, c, spread(c.ID()), regionPages, regionPages)
		cycle(tc)
	}
	return run(env, "protect", sys, cores, warm, rounds(env, iters, nil, cycle))
}

// Fork runs the fork+COW microbenchmark, the Metis/posix-spawn pattern the
// paper's evaluation stresses: a multithreaded parent in which every core
// has faulted in its own private region forks a child; the child's threads
// (one per core) then write every page of their own region — each first
// write a copy-on-write break that copies the shared frame — unmap their
// piece, and the child exits. Repeat.
//
// On RadixVM the fork is a root copy and the child's work is core-local:
// each COW break touches per-page metadata, a per-core page table, and a
// core-local frame — disjoint writes commute even when they copy — and sends
// no IPI. What does not scale is the one interrupt round per exit (every
// core faulted its region into the child, so MMU.Reset finds every one a
// holder; the fork's finds none). The baselines serialize three ways: every
// COW break broadcasts a TLB flush to every core using the child (the shared
// table records no sharer sets), every child munmap broadcasts again, and the
// fault/unmap paths contend on the address-space lock. The child exits
// through vm.Exiter where the system has one, once its threads are done.
// The reported metric is child page writes per second, as in the local
// benchmark.
func Fork(env *Env, sys vm.System, cores int, iters int, regionPages uint64) Result {
	bar := hw.NewBarrier(cores)
	var child vm.System // published by core 0, read by all after the barrier
	return forkRounds(env, "fork", sys, cores, iters, regionPages, bar,
		func(tc *hw.Ctx) uint64 {
			if c := tc.CPU(); c.ID() == 0 {
				child = fork(sys, c)
			}
			return 0
		},
		func(tc *hw.Ctx) uint64 {
			c := tc.CPU()
			lo := spread(c.ID())
			writes := touch(child, c, lo, regionPages, true)
			Check(child, c, "munmap", lo, child.Munmap(c, lo, regionPages))
			return writes
		},
		// Every thread is done with the child before it goes.
		func(tc *hw.Ctx) uint64 {
			if c := tc.CPU(); c.ID() == 0 {
				if ex, ok := child.(vm.Exiter); ok {
					ex.Exit(c)
				}
			}
			return 0
		})
}

// Spawn runs the spawn-server microbenchmark, the concurrent half of the
// fork story: where Fork designates one core to fork while the gang waits,
// Spawn has *every* core fork its own copy-on-write child of one shared
// multithreaded parent each round, with no barrier between the forks — so
// fork-vs-fork (and fork-vs-fault) contention at the address-space
// structures is exercised directly, the pattern of a posix_spawn service
// or a per-connection preforking server. Per round, each core:
//
//  1. forks its own child of the shared parent (concurrently with every
//     other core's fork);
//  2. COW-touches its own region in its child — each first write breaks
//     the share and copies the frame;
//  3. re-dirties its own region in the *parent* (the server thread keeps
//     serving), which breaks the parent-side COW shares;
//  4. tears its child down (reap), unwinding the child's COW shares and
//     frame references exactly.
//
// On RadixVM a fork freezes the parent's root and copies it as a reader,
// so concurrent forks do not wait for one another, and the parent copies
// its frozen root once, at its next write; the parent-side COW breaks stay
// per-page and targeted (the stale translation lives only on the breaking
// core: no shootdowns at all). The baselines serialize every fork, parent break,
// and parent fault on one address-space lock and broadcast a TLB flush to
// every core using the parent per parent-side break — which is exactly
// where they should, and do, collapse. The reported metric counts child
// and parent page writes, as in the local benchmark.
func Spawn(env *Env, sys vm.System, cores int, iters int, regionPages uint64) Result {
	return forkRounds(env, "spawn", sys, cores, iters, regionPages, nil, func(tc *hw.Ctx) uint64 {
		c := tc.CPU()
		lo := spread(c.ID())
		ch := fork(sys, c)
		writes := touch(ch, c, lo, regionPages, true)  // child COW break: copy
		writes += touch(sys, c, lo, regionPages, true) // parent re-dirty: parent-side break
		reap(c, ch, cores, regionPages)
		return writes
	})
}

// Clone runs the template-clone microbenchmark, the fan-out pattern the
// O(1) generation fork exists for (a zygote/posix_spawn template server):
// every core has faulted in a large slice of one shared template address
// space; per round, each core forks its own child of the template — with
// no barrier between the forks — COW-touches a handful of pages in its own
// slice, and exits the child. The fork-to-exit cycle, not the touches, is
// the measured work: the touch count is fixed and small while the template
// is large, so the figure isolates how fork and exit cost scale with the
// size of the address space being cloned.
//
// On RadixVM the fork bumps a generation, which freezes the template's root,
// and copies that root as a reader, so forks from every core overlap; each
// touch pays its path copy at divergence, and exit releases only the child's
// own divergences — the whole cycle is O(pages the child actually touched).
// Both baselines copy metadata proportional to the whole template per fork
// and pay an exit_mmap munmap sweep per child because they lack a whole-space
// teardown (reap).
func Clone(env *Env, sys vm.System, cores int, iters int, slicePages, touchPages uint64) Result {
	return forkRounds(env, "clone", sys, cores, iters, slicePages, nil, func(tc *hw.Ctx) uint64 {
		c := tc.CPU()
		ch := fork(sys, c)
		writes := touch(ch, c, spread(c.ID()), touchPages, true) // COW breaks in the child's slice
		reap(c, ch, cores, slicePages)
		return writes
	})
}

// forkRounds runs a fork workload over a parent in which every core has
// mapped and write-faulted its own pages-page region at spread(id). The warm
// phase builds that parent, waits until every region exists, and runs one
// throwaway round to settle first-fork one-time costs and every line the
// loop touches; then iters measured rounds. A round is phases, the cores
// meeting at bar between two of them, as in rounds.
func forkRounds(env *Env, name string, sys vm.System, cores, iters int, pages uint64, bar *hw.Barrier, phases ...func(tc *hw.Ctx) uint64) Result {
	built := hw.NewBarrier(cores)
	warm := func(tc *hw.Ctx) {
		c := tc.CPU()
		Populate(sys, c, spread(c.ID()), pages, pages)
		tc.Wait(built)
		for j, phase := range phases {
			if j > 0 {
				tc.Wait(bar)
			}
			phase(tc)
		}
	}
	return run(env, name, sys, cores, warm, rounds(env, iters, bar, phases...))
}

// reap tears down a forked child whose parent gave each of cores cores a
// pages-page region at spread(id): through vm.Exiter where the system has
// one, else exit_mmap-style, one munmap per region. On radixvm the munmap
// sweep would path-copy every node the child still shares before clearing it.
func reap(c *hw.CPU, ch vm.System, cores int, pages uint64) {
	if ex, ok := ch.(vm.Exiter); ok {
		ex.Exit(c)
		return
	}
	for id := 0; id < cores; id++ {
		Check(ch, c, "munmap", spread(id), ch.Munmap(c, spread(id), pages))
	}
}
