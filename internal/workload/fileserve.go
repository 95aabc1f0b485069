package workload

import (
	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/vm"
)

// FileServeConfig parameterizes the shared-page-cache workload.
type FileServeConfig struct {
	Procs       int    // total spawn requests (arrivals)
	MaxLive     int    // pool residency cap (concurrently live address spaces)
	Threads     int    // reader threads per child process
	FilePages   uint64 // shared file size in pages
	WindowPages uint64 // pages each thread reads per activation
	MeanArrival uint64 // mean virtual inter-arrival gap in cycles
	Seed        int64  // arrival-PRNG seed

	WBRounds   int    // writeback ticker rounds
	WBPages    uint64 // pages revoked per round (rotating window)
	WBGap      uint64 // virtual cycles between ticker rounds
	TruncEvery int    // every Nth round also truncate+re-extend (0 = never)
}

// A reader thread's compute after its window: one quantum, half a fleet
// thread's.
const (
	fileServeQuanta       = 1
	fileServeQuantumTicks = 2000 // virtual cycles
)

// DefaultFileServeConfig is the shape the filemap figure sweeps around:
// one hot shared file, fleets of two-thread readers each faulting a
// rotating window of it, and a writeback ticker revoking a rotating
// window while they run.
func DefaultFileServeConfig() FileServeConfig {
	return FileServeConfig{
		Procs:       512,
		MaxLive:     256,
		Threads:     2,
		FilePages:   512,
		WindowPages: 16,
		MeanArrival: 20_000,
		Seed:        1,
		WBRounds:    64,
		WBPages:     64,
		WBGap:       200_000,
		TruncEvery:  8,
	}
}

// FileServeResult extends Result with the page-cache pressure metrics.
type FileServeResult struct {
	Result
	Spawns          uint64
	Faults          uint64 // page faults machine-wide (file fills + refaults)
	Writebacks      uint64
	Truncates       uint64
	RevokedPages    uint64 // translations invalidated across all revokes
	WritebackIPIs   uint64 // IPIs the ticker core sent inside Writeback/Truncate
	WritebackRounds uint64 // interrupt rounds (Shootdowns) it sent there
	TickerCycles    uint64 // virtual cycles the ticker spent inside Writeback/Truncate
	RevokeVisits    uint64 // address spaces the revocations walked into
	SharerHigh      int    // per-page sharer-set high-water seen at revokes
	CacheFills      uint64 // page-cache misses (first faulter fills)
	CachePages      int    // pages resident in the cache at the end
	LiveHigh        int
	RunQHigh        int
	Deferred        uint64
	Reviews         uint64
	ReviewQHigh     int
}

// FaultsPerSec converts the fault count into faults/sec at the modeled
// 2.4 GHz clock.
func (r FileServeResult) FaultsPerSec() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Faults) * 2.4e9 / float64(r.Cycles)
}

// IPIsPerWriteback is the figure's headline: how many shootdown IPIs one
// writeback costs. RadixVM pays per actual sharer of each revoked page;
// the baselines broadcast per address space mapping the file.
func (r FileServeResult) IPIsPerWriteback() float64 { return r.perRevocation(r.WritebackIPIs) }

// RoundsPerWriteback is how many interrupt rounds one writeback costs: at most
// one on RadixVM, whose visits to the holders share a round; one per mapping
// space on the baselines.
func (r FileServeResult) RoundsPerWriteback() float64 { return r.perRevocation(r.WritebackRounds) }

func (r FileServeResult) perRevocation(n uint64) float64 {
	ops := r.Writebacks + r.Truncates
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

// TickerCyclesPerRound is where the ticker's time goes: the virtual cycles one
// round's revocations cost it, its own gap excluded. The run ends when the
// ticker does, so beside WBGap this is what bounds the figure's throughput.
func (r FileServeResult) TickerCyclesPerRound() float64 { return r.perRound(r.TickerCycles) }

// VisitsPerRound is how many address spaces one round's revocations walked
// into: the holders of the window's pages on RadixVM, every space mapping the
// file on the baselines.
func (r FileServeResult) VisitsPerRound() float64 { return r.perRound(r.RevokeVisits) }

func (r FileServeResult) perRound(n uint64) float64 {
	if r.Writebacks == 0 {
		return 0
	}
	return float64(n) / float64(r.Writebacks) // one Writeback a round
}

// fileServeBase places the shared file mapping in its own region, away
// from the per-core spread() arenas and the fleet template.
const fileServeBase = uint64(1) << 34

// FileServe runs the shared page cache workload: one hot file in a
// mem.PageCache, a fleet of multithreaded reader processes forked from a
// template that maps it (so every child shares the cached frames, and a
// revocation has to find each child that holds one), and a writeback
// ticker that walks a rotating window of the file revoking cached
// translations; every TruncEvery-th round it truncates the file's tail
// and re-extends it, forcing the cache pages themselves to die and
// refill. Readers fault rotating windows the whole time.
//
// The measurement the figure is after: the ticker core's own IPIsSent
// delta around each revocation. On RadixVM that counts exactly the
// per-page sharer sets of the revoked window; on linux/bonsai it counts
// one broadcast per live address space mapping the file, however few of
// its pages that space ever touched. Beside it, where the ticker's time goes:
// its cycles inside the revocations and the spaces they walked into — the
// window's holders on RadixVM, every mapping space on the baselines.
//
// Like Fleet, the run is a pure function of (config, virtual time) under
// the deterministic gang schedule.
func FileServe(env *Env, sys vm.System, cores int, alloc *mem.Allocator, cfg FileServeConfig) FileServeResult {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.WindowPages == 0 || cfg.WindowPages > cfg.FilePages {
		cfg.WindowPages = cfg.FilePages
	}
	file := vm.NewFile(alloc)

	// The template parent maps the whole file but faults nothing: each
	// child pulls its own windows through the page cache, so the first
	// faulter anywhere in the fleet fills a page and everyone later shares
	// the same frame.
	c0 := env.M.CPU(0)
	Check(sys, c0, "mmap", fileServeBase, sys.Mmap(c0, fileServeBase, cfg.FilePages, vm.MapOpts{
		Prot: vm.ProtRead | vm.ProtWrite, File: file, Offset: 0,
	}))

	// Each thread reads a rotating window of the shared file, advancing by
	// half a window per thread: neighbors overlap, so pages accumulate small
	// multi-core sharer sets while the whole file stays hot across the fleet.
	stride := max(cfg.WindowPages/2, 1)
	touch := func(c *hw.CPU, p *process, t int, i uint64) {
		off0 := (uint64(p.id)*uint64(cfg.Threads) + uint64(t)) * stride % cfg.FilePages
		// A racing truncate may have cut this offset; the segv is the
		// correct demand-paging answer, not a workload error.
		vpn := fileServeBase + (off0+i)%cfg.FilePages
		if err := p.sys.Access(c, vpn, false); err != vm.ErrSegv {
			Check(p.sys, c, "access", vpn, err)
		}
	}

	// The writeback ticker: a pinned proc on core 0 that revokes a
	// rotating window each round. Its own core's IPIsSent delta around
	// each call is exactly the shootdown traffic that revocation cost.
	var wbIPIs, wbRounds, wbCycles uint64
	var ticker func(tc *hw.Ctx)
	if cfg.WBRounds > 0 && cfg.WBPages > 0 {
		ticker = func(tc *hw.Ctx) {
			c := tc.CPU()
			for round := 0; round < cfg.WBRounds; round++ {
				off := (uint64(round) * cfg.WBPages) % cfg.FilePages
				n := min(cfg.WBPages, cfg.FilePages-off)
				ipi0, rounds0, now0 := c.Stats().IPIsSent, c.Stats().Shootdowns, c.Now()
				file.Writeback(c, off, n)
				if cfg.TruncEvery > 0 && (round+1)%cfg.TruncEvery == 0 {
					// Cut the file's tail and grow it back: the dropped
					// pages die in the cache (refcache-delayed) and later
					// readers refill them.
					file.Truncate(c, cfg.FilePages-cfg.WBPages)
					file.Extend(cfg.FilePages)
				}
				wbIPIs += c.Stats().IPIsSent - ipi0
				wbRounds += c.Stats().Shootdowns - rounds0
				wbCycles += c.Now() - now0
				env.RC.Maintain(c)
				c.TickAs(hw.CauseThink, cfg.WBGap)
				tc.Yield()
			}
		}
	}

	run := runFleet(env, sys, cores, fleetSpec{
		procs: cfg.Procs, maxLive: cfg.MaxLive, threads: cfg.Threads, quanta: fileServeQuanta,
		quantumTicks: fileServeQuantumTicks, meanArrival: cfg.MeanArrival, seed: cfg.Seed,
		base: fileServeBase, pages: cfg.FilePages, touchPages: cfg.WindowPages,
		touch: touch, ticker: ticker,
	})

	// Drain the refcache to quiescence: pages the truncates killed and the
	// teardowns dereferenced sit in per-core delta caches and review
	// queues; three full epochs flush, wait out the review delay, and
	// review them. The drain is part of the workload's reclamation story
	// (and of its review accounting), and is quiescent-deterministic.
	env.RC.FlushAll()
	env.RC.FlushAll()
	env.RC.FlushAll()

	res, fs := result(env, "filemap", sys, cores, run.start, run.touched), file.Stats()
	return FileServeResult{
		Result:          res,
		Spawns:          uint64(cfg.Procs),
		Faults:          res.Stats.PageFaults,
		Writebacks:      fs.Writebacks,
		Truncates:       fs.Truncates,
		RevokedPages:    fs.Revoked,
		WritebackIPIs:   wbIPIs,
		WritebackRounds: wbRounds,
		TickerCycles:    wbCycles,
		RevokeVisits:    fs.Visits,
		SharerHigh:      fs.SharerHigh,
		CacheFills:      file.Cache().Fills(),
		CachePages:      file.Cache().Pages(),
		LiveHigh:        run.pool.liveHigh,
		RunQHigh:        run.sched.RunQueueHighWater(),
		Deferred:        run.sched.DeferredArrivals(),
		Reviews:         env.RC.Reviews() - run.reviews0,
		ReviewQHigh:     env.RC.ReviewQueueHighWater(),
	}
}
