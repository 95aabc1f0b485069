package workload

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

const (
	fsTestBase = uint64(1) << 30 // file mapping VPN in the tests below
	fsTestAnon = uint64(1) << 31 // anonymous scratch VPN
)

// fsSys is fleetSysCfg plus the allocator, which the filemap tests need to
// create files and to check for frame leaks.
func fsSys(name string, mc hw.Config) (*Env, vm.System, *mem.Allocator) {
	m := hw.NewMachine(mc)
	rc := refcache.New(m)
	alloc := mem.NewAllocator(m, rc)
	env := &Env{M: m, RC: rc}
	switch name {
	case "radixvm":
		return env, vm.New(m, rc, alloc, vm.NewPerCoreMMU(m)), alloc
	case "linux":
		return env, linuxvm.New(m, rc, alloc), alloc
	default:
		return env, bonsaivm.New(m, rc, alloc), alloc
	}
}

func fsMust(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// fsQuiesce drains the refcache to a fixed point: each flush closes an
// epoch, and an object dirtied during its review delay re-queues for
// another round, so a deep Dec pipeline takes several epochs to settle.
func fsQuiesce(env *Env) {
	for i := 0; i < 20; i++ {
		env.RC.FlushAll()
	}
}

// fsRetire tears down a space: whole-space Exit where the system supports
// it, else munmap of the given ranges (which must cover every mapping).
func fsRetire(c *hw.CPU, t *testing.T, sys vm.System, ranges ...[2]uint64) {
	t.Helper()
	if ex, ok := sys.(vm.Exiter); ok {
		ex.Exit(c)
		return
	}
	for _, r := range ranges {
		fsMust(t, sys.Munmap(c, r[0], r[1]))
	}
}

func fsSmallConfig() FileServeConfig {
	cfg := DefaultFileServeConfig()
	cfg.Procs = 32
	cfg.MaxLive = 16
	cfg.FilePages = 64
	cfg.WindowPages = 16
	cfg.MeanArrival = 10_000
	cfg.WBRounds = 8
	cfg.WBPages = 16
	cfg.WBGap = 50_000
	cfg.TruncEvery = 4
	return cfg
}

func TestFileServeRunsOnAllSystems(t *testing.T) {
	for _, name := range []string{"radixvm", "linux", "bonsai"} {
		env, sys, alloc := fsSys(name, hw.TestConfig(4))
		cfg := fsSmallConfig()
		r := FileServe(env, sys, 4, alloc, cfg)
		if r.Spawns != 32 || r.Stats.Forks != 32 {
			t.Fatalf("%s: spawns=%d forks=%d, want 32 each", name, r.Spawns, r.Stats.Forks)
		}
		if r.Writebacks != 8 || r.Truncates != 2 {
			t.Fatalf("%s: %d writebacks + %d truncates, want 8 + 2", name, r.Writebacks, r.Truncates)
		}
		if r.Faults == 0 || r.CacheFills == 0 {
			t.Fatalf("%s: no demand paging recorded (faults=%d fills=%d)", name, r.Faults, r.CacheFills)
		}
		if r.CachePages == 0 || uint64(r.CachePages) > cfg.FilePages {
			t.Fatalf("%s: %d pages cached at end, want 1..%d", name, r.CachePages, cfg.FilePages)
		}
		if r.RevokedPages == 0 || r.WritebackIPIs == 0 {
			t.Fatalf("%s: writebacks revoked %d translations with %d IPIs, want both > 0",
				name, r.RevokedPages, r.WritebackIPIs)
		}
		if r.SharerHigh < 1 {
			t.Fatalf("%s: sharer-set high-water %d, want >= 1", name, r.SharerHigh)
		}
		if r.LiveHigh == 0 {
			t.Fatalf("%s: pool never held a live space", name)
		}
		if r.Reviews == 0 {
			t.Fatalf("%s: no refcache reviews — truncated pages never drained", name)
		}
	}
}

// TestForkRegistersFileSharers is the fork/file-page regression: a forked
// child shares the parent's cached file frames, so a later writeback must find
// the child's translations too — otherwise the child keeps reading a page the
// kernel believes it has invalidated. The baselines join each mapped file's mm
// registry at fork; a RadixVM child is found through the holder set of each
// page it faults. All three systems.
func TestForkRegistersFileSharers(t *testing.T) {
	for _, name := range []string{"radixvm", "linux", "bonsai"} {
		t.Run(name, func(t *testing.T) {
			env, sys, alloc := fsSys(name, hw.DefaultConfig(2))
			c0, c1 := env.M.CPU(0), env.M.CPU(1)
			file := vm.NewFile(alloc)
			fsMust(t, sys.Mmap(c0, fsTestBase, 4, vm.MapOpts{
				Prot: vm.ProtRead | vm.ProtWrite, File: file, Offset: 0,
			}))
			fsMust(t, sys.Access(c0, fsTestBase, false))
			fsMust(t, sys.Access(c0, fsTestBase+1, false))

			child, err := sys.Fork(c0)
			fsMust(t, err)
			registry := name != "radixvm"
			if got := file.Mappers(); registry && got != 2 {
				t.Fatalf("file has %d registered mappers after fork, want 2 (child missing)", got)
			}
			fsMust(t, child.Access(c1, fsTestBase, false))

			file.Writeback(c0, 0, 4)
			pf := c1.Stats().PageFaults
			fsMust(t, child.Access(c1, fsTestBase, false))
			if got := c1.Stats().PageFaults - pf; got != 1 {
				t.Fatalf("child access after writeback took %d faults, want 1 refault (stale translation survived)", got)
			}

			// The parent had faulted both pages before it forked; the child
			// has read one of them and reaches the other through metadata it
			// still shares with the parent. After a truncate neither side may
			// reach a frame of either.
			file.Truncate(c0, 0)
			for p := uint64(0); p < 2; p++ {
				if err := sys.Access(c0, fsTestBase+p, false); !errors.Is(err, vm.ErrSegv) {
					t.Errorf("parent read of page %d past EOF: %v, want ErrSegv", p, err)
				}
				if err := child.Access(c1, fsTestBase+p, false); !errors.Is(err, vm.ErrSegv) {
					t.Errorf("child read of page %d past EOF: %v, want ErrSegv", p, err)
				}
			}

			fsRetire(c1, t, child, [2]uint64{fsTestBase, 4})
			if got := file.Mappers(); registry && got != 1 {
				t.Fatalf("file has %d registered mappers after child teardown, want 1", got)
			}
			fsRetire(c0, t, sys, [2]uint64{fsTestBase, 4})
			fsQuiesce(env)
			if live := alloc.Live(); live != 0 {
				t.Fatalf("%d frames live after both sides retired and the file emptied", live)
			}
		})
	}
}

// TestWritebackIPIsTrackSharersNotMappers pins the figure's shape as a
// regression: with the sharer count held at two, RadixVM's writeback IPIs
// stay flat as the number of address spaces mapping the file grows 4 -> 32,
// because each page's metadata names its actual sharers; the baselines'
// invalidate_inode_pages-style pass broadcasts per mapping space, so their
// IPI bill grows with the mapper count even though no new core ever read
// the file.
func TestWritebackIPIsTrackSharersNotMappers(t *testing.T) {
	ipisFor := func(name string, nMappers int) uint64 {
		env, sys, alloc := fsSys(name, hw.DefaultConfig(8))
		file := vm.NewFile(alloc)
		c0 := env.M.CPU(0)
		fsMust(t, sys.Mmap(c0, fsTestBase, 16, vm.MapOpts{
			Prot: vm.ProtRead | vm.ProtWrite, File: file, Offset: 0,
		}))
		children := make([]vm.System, nMappers)
		for i := range children {
			ch, err := sys.Fork(c0)
			fsMust(t, err)
			children[i] = ch
			// Run each child somewhere so its space is live on a core: the
			// baselines' broadcast targets every core a mapping space ran on.
			c := env.M.CPU(1 + i%7)
			fsMust(t, ch.Mmap(c, fsTestAnon, 1, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
			fsMust(t, ch.Access(c, fsTestAnon, true))
		}
		// Exactly two spaces — on two fixed cores — ever read the file.
		for p := uint64(0); p < 16; p++ {
			fsMust(t, children[0].Access(env.M.CPU(1), fsTestBase+p, false))
			fsMust(t, children[1].Access(env.M.CPU(2), fsTestBase+p, false))
		}
		ipi0 := c0.Stats().IPIsSent
		file.Writeback(c0, 0, 16)
		return c0.Stats().IPIsSent - ipi0
	}

	r4, r32 := ipisFor("radixvm", 4), ipisFor("radixvm", 32)
	if r4 == 0 {
		t.Fatalf("radixvm writeback sent no IPIs despite two sharers")
	}
	if r32 != r4 {
		t.Errorf("radixvm writeback IPIs moved with mapper count: %d @ 4 mappers -> %d @ 32 (sharers fixed at 2)", r4, r32)
	}
	for _, name := range []string{"linux", "bonsai"} {
		b4, b32 := ipisFor(name, 4), ipisFor(name, 32)
		if b32 < 4*b4 {
			t.Errorf("%s writeback IPIs did not grow with mapper count: %d @ 4 mappers -> %d @ 32", name, b4, b32)
		}
		if b32 <= 3*r32 {
			t.Errorf("%s @ 32 mappers sent %d IPIs vs radixvm's %d — broadcast should dwarf targeted", name, b32, r32)
		}
	}
}

// TestWritebackCostTracksHoldersNotMappers is the same claim for cycles and
// host allocations: one Writeback over a window that two spaces hold costs
// RadixVM's ticker the same virtual cycles, and the simulator the same number
// of mallocs, with no further children and with 512 of them that each fault a
// page elsewhere in the file. A revocation walks into the holders of the
// pages it revokes; a space that maps the file and holds none of them is not
// locked, path-copied or expanded to find that out.
func TestWritebackCostTracksHoldersNotMappers(t *testing.T) {
	costFor := func(idle int) (cycles, mallocs, visits uint64) {
		env, sys, alloc := fsSys("radixvm", hw.DefaultConfig(8))
		file := vm.NewFile(alloc)
		c0 := env.M.CPU(0)
		fsMust(t, sys.Mmap(c0, fsTestBase, 1024, vm.MapOpts{
			Prot: vm.ProtRead | vm.ProtWrite, File: file, Offset: 0,
		}))
		fork := func() vm.System {
			ch, err := sys.Fork(c0)
			fsMust(t, err)
			return ch
		}
		holders := []vm.System{fork(), fork()}
		for i := 0; i < idle; i++ {
			fsMust(t, fork().Access(env.M.CPU(3+i%5), fsTestBase+64+uint64(i), false))
		}
		for p := uint64(0); p < 16; p++ {
			fsMust(t, holders[0].Access(env.M.CPU(1), fsTestBase+p, false))
			fsMust(t, holders[1].Access(env.M.CPU(2), fsTestBase+p, false))
		}
		// The same instant on every core both times, so that no charge
		// depends on how long the idle children took to set up.
		for i := 0; i < 8; i++ {
			env.M.CPU(i).AdvanceTo(1 << 32)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		now := c0.Now()
		file.Writeback(c0, 0, 16)
		cycles = c0.Now() - now
		runtime.ReadMemStats(&after)
		if got := file.Stats().Revoked; got != 32 {
			t.Fatalf("%d idle children: writeback revoked %d translations, want 32", idle, got)
		}
		return cycles, after.Mallocs - before.Mallocs, file.Stats().Visits
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The Go runtime may start an OS thread inside a measured Writeback, and
	// that counts as mallocs: each side's count is its least over three fresh
	// setups. The virtual numbers must agree in all six.
	var cycles uint64
	mallocs := map[int]uint64{}
	for _, idle := range []int{0, 512} {
		for run := range 3 {
			c, m, v := costFor(idle)
			if v != 2 {
				t.Errorf("writeback walked into %d spaces beside %d idle children, want the 2 holders", v, idle)
			}
			if idle == 0 && run == 0 {
				cycles = c
			} else if c != cycles {
				t.Errorf("writeback cost %d cycles beside %d idle children, %d alone: want equal", c, idle, cycles)
			}
			if run == 0 || m < mallocs[idle] {
				mallocs[idle] = m
			}
		}
	}
	if mallocs[0] != mallocs[512] {
		t.Errorf("writeback allocated at least %d objects alone, %d beside 512 idle children: want equal", mallocs[0], mallocs[512])
	}
}

// TestFileServeDeterministic runs the 8-core filemap workload twice per
// system and demands bit-identical results: the figure-level metrics, every
// per-core clock, and every per-core Stats counter and cycle meter, whose
// causes must sum to each core's clock advance. This is what lets
// figures/filemap.txt be gated byte-for-byte.
func TestFileServeDeterministic(t *testing.T) {
	for _, name := range []string{"radixvm", "linux", "bonsai"} {
		run := func() (FileServeResult, snapshot) {
			env, sys, alloc := fsSys(name, hw.DefaultConfig(8))
			cfg := DefaultFileServeConfig()
			cfg.Procs = 96
			cfg.MaxLive = 48
			cfg.WBRounds = 24
			r := FileServe(env, sys, 8, alloc, cfg)
			checkMeter(t, name+"/filemap@8", env.M)
			return r, snap(env, r.Result)
		}
		r1, s1 := run()
		r2, s2 := run()
		if r1 != r2 {
			t.Errorf("%s: filemap results diverged:\n run1: %+v\n run2: %+v", name, r1, r2)
		}
		compare(t, name+"/filemap@8", s1, s2)
	}
}

// TestFileServeTeardownLeavesOnlyCache checks the fleet's reclamation story
// end to end: after every child is torn down or evicted and the refcache
// drained, the only frames still allocated are the page cache's own
// residents (each holding the cache's base reference). Anything beyond that
// is a leaked mapping reference from fork, revoke, or teardown.
func TestFileServeTeardownLeavesOnlyCache(t *testing.T) {
	for _, name := range []string{"radixvm", "linux", "bonsai"} {
		env, sys, alloc := fsSys(name, hw.TestConfig(4))
		r := FileServe(env, sys, 4, alloc, fsSmallConfig())
		// FileServe's own drain settles the flat Dec pipeline; teardown
		// cascades (a freed radix node Decs its children) take a few more
		// epochs to reach the leaves.
		fsQuiesce(env)
		if live := alloc.Live(); live != int64(r.CachePages) {
			t.Errorf("%s: %d frames live after fleet teardown, want exactly the %d cached pages",
				name, live, r.CachePages)
		}
	}
}

// TestFileServeTickerVisitsHoldersNotMappers: the figure's fourth table in
// miniature. Under either run shape RadixVM's ticker walks into the holders of
// the pages it revokes — a small fraction of the spaces that map the file,
// every one of which the baselines' registry walk visits.
func TestFileServeTickerVisitsHoldersNotMappers(t *testing.T) {
	big := DefaultFileServeConfig()
	big.Procs, big.MaxLive, big.WBRounds = 96, 48, 24
	for _, run := range []struct {
		mc  hw.Config
		cfg FileServeConfig
	}{{hw.TestConfig(4), fsSmallConfig()}, {hw.DefaultConfig(8), big}} {
		visits := map[string]float64{}
		for _, name := range []string{"radixvm", "linux"} {
			env, sys, alloc := fsSys(name, run.mc)
			r := FileServe(env, sys, run.mc.NCores, alloc, run.cfg)
			if r.TickerCycles == 0 || r.RevokeVisits == 0 {
				t.Errorf("%s: the ticker spent %d cycles in %d visits, want both > 0", name, r.TickerCycles, r.RevokeVisits)
			}
			visits[name] = r.VisitsPerRound()
		}
		if visits["radixvm"]*2 > visits["linux"] {
			t.Errorf("radixvm's revocations walked into %.2f spaces a round, linux's into %.2f: holders should be far fewer than mappers",
				visits["radixvm"], visits["linux"])
		}
	}
}

// TestRaceFileFaultVsTruncate races demand faults of a mapped file against
// truncate/extend/writeback cycles on the explorer: every access must land as
// success or ErrSegv (an access past the racing EOF), the run must not
// wedge, and once the space retires and the file empties no frame may
// remain allocated.
func TestRaceFileFaultVsTruncate(t *testing.T) {
	for _, name := range []string{"radixvm", "linux", "bonsai"} {
		t.Run(name, func(t *testing.T) {
			const ncores = 4
			for seed := range hw.Seeds(8) {
				env, sys, alloc := fsSys(name, hw.TestConfig(ncores))
				c0 := env.M.CPU(0)
				file := vm.NewFile(alloc)
				fsMust(t, sys.Mmap(c0, fsTestBase, 64, vm.MapOpts{
					Prot: vm.ProtRead | vm.ProtWrite, File: file, Offset: 0,
				}))
				hw.RunGang(env.M, ncores, seed, func(c *hw.CPU, g *hw.Gang) {
					if c.ID() == 0 {
						for k := 0; k < 40; k++ {
							file.Truncate(c, 8)
							file.Extend(64)
							file.Writeback(c, 0, 64)
							env.RC.Maintain(c)
							g.Sync(c)
						}
						return
					}
					for k := 0; k < 120; k++ {
						v := fsTestBase + uint64(k*7+c.ID()*13)%64
						if err := sys.Access(c, v, false); err != nil && !errors.Is(err, vm.ErrSegv) {
							t.Errorf("seed %d: core %d: fault vs truncate: %v", seed, c.ID(), err)
							return
						}
						env.RC.Maintain(c)
						g.Sync(c)
					}
				})
				if t.Failed() {
					t.Fatalf("failed at seed %d", seed)
				}
				fsRetire(c0, t, sys, [2]uint64{fsTestBase, 64})
				file.Truncate(c0, 0)
				fsQuiesce(env)
				if live := alloc.Live(); live != 0 {
					t.Fatalf("seed %d: %d frames leaked through the fault/truncate race", seed, live)
				}
			}
		})
	}
}

// TestRaceWritebackVsForkCOWExit races the writeback ticker against the
// fleet's churn: cores fork children off a space that maps the file, fault
// file pages, break COW on inherited anonymous pages, and retire the child
// — while core 0 revokes the file's translations the whole time. The
// registration handoff (fork joins the registry, exit leaves it) must
// neither wedge a revoke nor leak a frame.
func TestRaceWritebackVsForkCOWExit(t *testing.T) {
	for _, name := range []string{"radixvm", "linux", "bonsai"} {
		t.Run(name, func(t *testing.T) {
			const ncores = 4
			for seed := range hw.Seeds(8) {
				env, sys, alloc := fsSys(name, hw.TestConfig(ncores))
				c0 := env.M.CPU(0)
				file := vm.NewFile(alloc)
				fsMust(t, sys.Mmap(c0, fsTestBase, 32, vm.MapOpts{
					Prot: vm.ProtRead | vm.ProtWrite, File: file, Offset: 0,
				}))
				fsMust(t, sys.Mmap(c0, fsTestAnon, 4, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
				for p := uint64(0); p < 4; p++ {
					fsMust(t, sys.Access(c0, fsTestAnon+p, true))
				}
				hw.RunGang(env.M, ncores, seed, func(c *hw.CPU, g *hw.Gang) {
					if c.ID() == 0 {
						for k := 0; k < 40; k++ {
							file.Writeback(c, 0, 32)
							env.RC.Maintain(c)
							g.Sync(c)
						}
						return
					}
					for k := 0; k < 12; k++ {
						ch, err := sys.Fork(c)
						if err != nil {
							t.Errorf("seed %d: core %d: fork: %v", seed, c.ID(), err)
							return
						}
						for p := uint64(0); p < 4; p++ {
							if err := ch.Access(c, fsTestBase+uint64(c.ID())*8+p, false); err != nil {
								t.Errorf("seed %d: core %d: child file read: %v", seed, c.ID(), err)
								return
							}
						}
						for p := uint64(0); p < 4; p++ {
							if err := ch.Access(c, fsTestAnon+p, true); err != nil {
								t.Errorf("seed %d: core %d: child COW write: %v", seed, c.ID(), err)
								return
							}
						}
						fsRetire(c, t, ch, [2]uint64{fsTestBase, 32}, [2]uint64{fsTestAnon, 4})
						env.RC.Maintain(c)
						g.Sync(c)
					}
				})
				if t.Failed() {
					t.Fatalf("failed at seed %d", seed)
				}
				fsRetire(c0, t, sys, [2]uint64{fsTestBase, 32}, [2]uint64{fsTestAnon, 4})
				file.Truncate(c0, 0)
				fsQuiesce(env)
				if live := alloc.Live(); live != 0 {
					t.Fatalf("seed %d: %d frames leaked through the writeback/fork/exit race", seed, live)
				}
			}
		})
	}
}
