package main

import (
	"fmt"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

// fullCores is the simulated core count of every full-size leg: the
// committed figures' headline point, past one socket, where the det gang's
// O(ncores) pick and the per-core page tables cost the most host time.
const fullCores = 64

// arrivalSeed seeds the fleet and filemap Poisson arrival streams: 1, the
// committed figures' seed. It is a constant, not the driver's --seed,
// because the virtual results are chaotic in it (see README.md) while the
// virtual metrics must compare exactly between any two runs.
const arrivalSeed = 1

// smokeCores is the core count of -smoke and of the package's tests.
const smokeCores = 8

// A leg is one workload run on one system at one core count; a round runs
// the four legs below on fresh machines.
type leg int

const (
	legRadix  leg = iota // radixvm at fullCores: the measured system
	legAnchor            // radixvm at 1 core: the scaling anchor
	legLinux             // linux baseline at fullCores
	legBonsai            // bonsai baseline at fullCores
	nLegs
)

var legNames = [nLegs]string{"radixvm", "radixvm@1", "linux", "bonsai"}

// newSystem builds leg l's VM system on a fresh environment.
func newSystem(l leg, e *workload.Env, a *mem.Allocator) vm.System {
	switch l {
	case legLinux:
		return linuxvm.New(e.M, e.RC, a)
	case legBonsai:
		return bonsaivm.New(e.M, e.RC, a)
	}
	return vm.New(e.M, e.RC, a, nil)
}

// newEnv builds a fresh machine, refcache domain and frame allocator, the
// same way the figure harness does.
func newEnv(cores int) (*workload.Env, *mem.Allocator) {
	m := hw.NewMachine(hw.DefaultConfig(cores))
	rc := refcache.New(m)
	return &workload.Env{M: m, RC: rc}, mem.NewAllocator(m, rc)
}

// outcome is what one leg's workload call returned, reduced to what the
// benchmark reports. print is the workload's whole result struct rendered
// with %+v: cycles, every hw.Stats field and every result field, so two
// legs with equal prints had equal virtual behaviour.
type outcome struct {
	print   string
	stats   hw.Stats
	ops     uint64  // the throughput numerator: page writes, spawns or faults
	wantOps uint64  // what ops must equal for the outputs to be correct
	tput    float64 // ops per virtual second at the modelled 2.4 GHz
	residue int64   // frames the workload legitimately leaves live

	// Scheduler and workload diagnostics; zero where the workload has none.
	arrivals, deferred uint64
	runqHigh           int
	p50, p99           uint64
	ipisPerWriteback   float64
	cacheFills         uint64
	sharerHigh         int
}

// vops counts the simulated VM operations the machine executed.
func vops(s hw.Stats) uint64 {
	return s.Mmaps + s.Munmaps + s.Mprotects + s.PageFaults + s.Forks
}

// workloadDef is one benchmark workload. run calls the repo's own workload
// driver unchanged; the sizes are fixed constants, never calibrated at run
// time, because the virtual metrics must repeat exactly.
type workloadDef struct {
	name   string
	why    string
	op     string // what one op of v_radix_tput is
	run    func(e *workload.Env, a *mem.Allocator, sys vm.System, cores int, l leg, smoke bool) outcome
	probes []string
}

func fromResult(r workload.Result, tput float64, want uint64) outcome {
	return outcome{stats: r.Stats, ops: r.PageWrites, wantOps: want, tput: tput}
}

func runLocal(e *workload.Env, _ *mem.Allocator, sys vm.System, cores int, l leg, smoke bool) outcome {
	iters := 6000
	switch {
	case smoke:
		iters = 60
	case l != legRadix:
		iters = 1000
	}
	r := workload.Local(e, sys, cores, iters, 1)
	o := fromResult(r, r.PerSecond(), uint64(cores*iters))
	o.print = fmt.Sprintf("%+v", r)
	return o
}

func runGlobal(e *workload.Env, _ *mem.Allocator, sys vm.System, cores int, l leg, smoke bool) outcome {
	const piece = 16
	iters := 12
	switch {
	case smoke:
		iters = 2
	case l != legRadix:
		iters = 6
	}
	r := workload.Global(e, sys, cores, iters, piece)
	o := fromResult(r, r.PerSecond(), uint64(iters*cores*cores*piece))
	o.print = fmt.Sprintf("%+v", r)
	return o
}

func runFleet(e *workload.Env, _ *mem.Allocator, sys vm.System, cores int, l leg, smoke bool) outcome {
	cfg := workload.DefaultFleetConfig()
	cfg.Seed = arrivalSeed
	cfg.Procs, cfg.MaxLive = 1536, 1024
	switch {
	case smoke:
		cfg.Procs, cfg.MaxLive = 48, 32
	case l != legRadix:
		cfg.Procs, cfg.MaxLive = 384, 256
	}
	r := workload.Fleet(e, sys, cores, cfg)
	touched := uint64(cfg.Threads) * cfg.TouchPages
	o := fromResult(r.Result, r.SpawnsPerSec(), uint64(cfg.Procs))
	o.print = fmt.Sprintf("%+v", r)
	o.ops = r.Spawns
	if r.PageWrites != r.Spawns*touched {
		o.ops = 0 // a child missed part of its touch set
	}
	// The warmed template stays mapped and the pool's resident children
	// keep their COW copies.
	o.residue = int64(256*touched + uint64(r.LiveEnd)*touched)
	o.arrivals, o.deferred, o.runqHigh = r.Spawns, r.Deferred, r.RunQHigh
	o.p50, o.p99 = r.P50, r.P99
	return o
}

func runFileMap(e *workload.Env, a *mem.Allocator, sys vm.System, cores int, l leg, smoke bool) outcome {
	cfg := workload.DefaultFileServeConfig()
	cfg.Seed = arrivalSeed
	cfg.Procs, cfg.MaxLive, cfg.WBRounds = 2048, 512, 128
	switch {
	case smoke:
		cfg.Procs, cfg.MaxLive, cfg.WBRounds = 64, 32, 8
	case l == legAnchor:
		cfg.Procs, cfg.MaxLive, cfg.WBRounds = 512, 128, 32
	}
	r := workload.FileServe(e, sys, cores, a, cfg)
	o := fromResult(r.Result, r.FaultsPerSec(), uint64(cfg.Procs)*uint64(cfg.Threads)*cfg.WindowPages)
	o.print = fmt.Sprintf("%+v", r)
	o.residue = int64(r.CachePages) // the page cache's residents
	o.arrivals, o.deferred, o.runqHigh = r.Spawns, r.Deferred, r.RunQHigh
	o.ipisPerWriteback = r.IPIsPerWriteback()
	o.cacheFills, o.sharerHigh = r.CacheFills, r.SharerHigh
	return o
}

var workloads = []*workloadDef{
	{
		name: "local", op: "page write", run: runLocal,
		why:    "private 1-page mmap/write/munmap per core: the range-lock write path, 0 IPIs on radixvm, scheduler hand-off dominates host time",
		probes: []string{"hw.detgang.yield64", "hw.sched.yield64", "radix.lockrange512", "refcache.incdec", "refcache.maintain", "refcache.flushall", "mem.alloc_decref"},
	},
	{
		name: "global", op: "page write", run: runGlobal,
		why:    "every core fill-faults one shared region between barriers: the fault path and line transfers, the reverse of local",
		probes: []string{"hw.ipi.send1", "hw.ipi.send63", "hw.line.read_hit", "hw.line.write_xfer", "radix.lookup", "radix.lockpage", "pagetable.map_unmap", "pagetable.lookup", "tlb.insert_lookup", "tlb.flushpage"},
	},
	{
		name: "fleet", op: "spawn", run: runFleet,
		why:    "Poisson fork/COW/exit churn over a bounded pool: op bodies (fork, COW fault, exit) dominate, no mmap/munmap path",
		probes: []string{"radix.forklazy_release"},
	},
	{
		name: "filemap", op: "page fault", run: runFileMap,
		why:    "forked readers fault one shared file through the page cache while a ticker revokes and truncates it: faults beside revocation",
		probes: []string{"mem.pagecache.page_hit", "mem.pagecache.page_fill", "vm.file.writeback64"},
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
