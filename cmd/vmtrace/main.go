// Command vmtrace runs one microbenchmark configuration and prints a
// per-core cost breakdown: virtual clocks, coherence traffic, faults, and
// shootdowns. Useful for understanding *why* a configuration scales (or
// does not) before running full sweeps with radixbench.
//
// Usage:
//
//	vmtrace -sys radixvm -workload local -cores 8 -iters 200
package main

import (
	"flag"
	"fmt"
	"os"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

func main() {
	sysName := flag.String("sys", "radixvm", "vm system: radixvm|radixvm-shared|linux|bonsai")
	wl := flag.String("workload", "local", "workload: local|pipeline|global|protect|fork|spawn|fleet|filemap")
	cores := flag.Int("cores", 8, "simulated cores")
	iters := flag.Int("iters", 200, "iterations per core")
	pages := flag.Uint64("pages", 1, "region pages (local/pipeline) or piece pages (global)")
	flag.Parse()

	m := hw.NewMachine(hw.DefaultConfig(*cores))
	rc := refcache.New(m)
	alloc := mem.NewAllocator(m, rc)
	env := &workload.Env{M: m, RC: rc}

	var sys vm.System
	switch *sysName {
	case "radixvm":
		sys = vm.New(m, rc, alloc, nil)
	case "radixvm-shared":
		sys = vm.New(m, rc, alloc, vm.NewSharedMMU(m))
	case "linux":
		sys = linuxvm.New(m, rc, alloc)
	case "bonsai":
		sys = bonsaivm.New(m, rc, alloc)
	default:
		fmt.Fprintf(os.Stderr, "vmtrace: unknown -sys %q\n", *sysName)
		os.Exit(2)
	}

	var r workload.Result
	var fr *workload.FleetResult
	var fsr *workload.FileServeResult
	switch *wl {
	case "filemap":
		cfg := workload.DefaultFileServeConfig()
		if *iters != 200 {
			cfg.Procs = *iters
			if cfg.MaxLive > *iters {
				cfg.MaxLive = *iters
			}
		}
		res := workload.FileServe(env, sys, *cores, alloc, cfg)
		fsr = &res
		r = res.Result
	case "fleet":
		cfg := workload.DefaultFleetConfig()
		if *iters != 200 {
			cfg.Procs = *iters
			if cfg.MaxLive > *iters {
				cfg.MaxLive = *iters
			}
		}
		res := workload.Fleet(env, sys, *cores, cfg)
		fr = &res
		r = res.Result
	case "local":
		r = workload.Local(env, sys, *cores, *iters, *pages)
	case "pipeline":
		if *cores < 2 {
			fmt.Fprintln(os.Stderr, "vmtrace: pipeline needs >= 2 cores")
			os.Exit(2)
		}
		r = workload.Pipeline(env, sys, *cores, *iters, max(*pages, 2))
	case "global":
		r = workload.Global(env, sys, *cores, max(2, *iters/40), max(*pages, 4))
	case "protect":
		r = workload.Protect(env, sys, *cores, *iters, max(*pages, 4))
	case "fork":
		r = workload.Fork(env, sys, *cores, *iters, max(*pages, 4))
	case "spawn":
		r = workload.Spawn(env, sys, *cores, *iters, max(*pages, 4))
	default:
		fmt.Fprintf(os.Stderr, "vmtrace: unknown -workload %q\n", *wl)
		os.Exit(2)
	}

	fmt.Printf("%s on %s, %d cores, %d iters\n\n", *wl, sys.Name(), *cores, *iters)
	fmt.Printf("throughput: %.2fM page writes/sec over %.3f virtual ms\n\n",
		r.PerSecond()/1e6, float64(r.Cycles)/2.4e6)
	if fr != nil {
		fmt.Printf("fleet: %d spawns (%.1fK spawns/s), first-touch latency p50 %d p99 %d cycles\n",
			fr.Spawns, fr.SpawnsPerSec()/1e3, fr.P50, fr.P99)
		fmt.Printf("fleet: live spaces high %d end %d, %d LRU evictions, run-queue depth high-water %d, %d deferred arrivals\n",
			fr.LiveHigh, fr.LiveEnd, len(fr.Evictions), fr.RunQHigh, fr.Deferred)
		fmt.Printf("fleet: refcache reviews %d, review-queue high-water %d\n\n",
			fr.Reviews, fr.ReviewQHigh)
	}
	if fsr != nil {
		wbs := fsr.Writebacks + fsr.Truncates
		perWB := func(n uint64) float64 {
			if wbs == 0 {
				return 0
			}
			return float64(n) / float64(wbs)
		}
		fmt.Printf("filemap: %.2fM faults/s, %d cache fills, %d pages cached at end\n",
			fsr.FaultsPerSec()/1e6, fsr.CacheFills, fsr.CachePages)
		fmt.Printf("filemap: %d writebacks + %d truncates revoked %d translations, %d shootdown IPIs (%.2f IPIs/writeback) in %d interrupt rounds (%.2f rounds/writeback)\n",
			fsr.Writebacks, fsr.Truncates, fsr.RevokedPages, fsr.WritebackIPIs, fsr.IPIsPerWriteback(),
			fsr.WritebackRounds, fsr.RoundsPerWriteback())
		fmt.Printf("filemap: the ticker spent %.1fK cycles/round inside its revocations, which walked into %.2f spaces/round\n",
			fsr.TickerCyclesPerRound()/1e3, fsr.VisitsPerRound())
		fmt.Printf("filemap: per-page sharer-set high-water %d, refcache reviews %d (%.2f reviews/writeback), review-queue high-water %d\n",
			fsr.SharerHigh, fsr.Reviews, perWB(fsr.Reviews), fsr.ReviewQHigh)
		fmt.Printf("filemap: live spaces high %d, run-queue depth high-water %d, %d deferred arrivals\n\n",
			fsr.LiveHigh, fsr.RunQHigh, fsr.Deferred)
	}
	fmt.Printf("%4s %14s %10s %10s %10s %8s %8s %8s %8s\n",
		"core", "cycles", "faults", "fills", "hits", "xfers", "cold", "ipiTX", "ipiRX")
	for i := 0; i < *cores; i++ {
		c := m.CPU(i)
		s := c.Stats()
		fmt.Printf("%4d %14d %10d %10d %10d %8d %8d %8d %8d\n",
			i, c.Now(), s.PageFaults, s.FillFaults, s.LocalHits,
			s.Transfers, s.ColdMisses, s.IPIsSent, s.IPIsReceived())
	}
	t := r.Stats
	fmt.Printf("\ntotals: %d mmaps, %d munmaps, %d mprotects, %d forks, %d faults (%d fills, %d prot, %d cow), %d transfers (%d cross-socket), %d shootdown rounds, %d IPIs (%d cross-socket, mailbox depth <= %d), %d pages zeroed\n",
		t.Mmaps, t.Munmaps, t.Mprotects, t.Forks, t.PageFaults, t.FillFaults, t.ProtFaults,
		t.COWBreaks, t.Transfers, t.CrossSocket, t.Shootdowns, t.IPIsSent, t.IPIsRemote, t.IPIMboxMax, t.PagesZeroed)
	fmt.Printf("page tables: %d KB\n", sys.PageTableBytes()/1024)
}
