// Command vmtrace runs one microbenchmark configuration and prints a
// per-core cost breakdown: virtual clocks, coherence traffic, faults, and
// shootdowns. Useful for understanding *why* a configuration scales (or
// does not) before running full sweeps with radixbench. With -breakdown it
// also prints where the cycles went: each cause's share of all cores' cycles
// (hw.Cause), and of the makespan core's. -sys takes a comma-separated list
// to run the same configuration on several systems.
//
// Usage:
//
//	vmtrace -sys radixvm -workload local -cores 8 -iters 200
//	vmtrace -sys radixvm,bonsai -workload clone -cores 80 -breakdown
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

func main() {
	sysNames := flag.String("sys", "radixvm", "vm systems, comma-separated: radixvm|radixvm-shared|linux|bonsai")
	wl := flag.String("workload", "local", "workload: local|pipeline|global|protect|fork|spawn|clone|fleet|filemap")
	cores := flag.Int("cores", 8, "simulated cores")
	iters := flag.Int("iters", 200, "iterations per core")
	pages := flag.Uint64("pages", 1, "region pages (local/pipeline) or piece pages (global)")
	breakdown := flag.Bool("breakdown", false, "print each cause's share of the cycles")
	flag.Parse()

	for i, name := range strings.Split(*sysNames, ",") {
		if i > 0 {
			fmt.Println()
		}
		trace(name, *wl, *cores, *iters, *pages, *breakdown)
	}
}

// trace runs workload wl on a fresh machine with system sysName and prints
// its report.
func trace(sysName, wl string, cores, iters int, pages uint64, breakdown bool) {
	m := hw.NewMachine(hw.DefaultConfig(cores))
	rc := refcache.New(m)
	alloc := mem.NewAllocator(m, rc)
	env := &workload.Env{M: m, RC: rc}

	var sys vm.System
	switch sysName {
	case "radixvm":
		sys = vm.New(m, rc, alloc, nil)
	case "radixvm-shared":
		sys = vm.New(m, rc, alloc, vm.NewSharedMMU(m))
	case "linux":
		sys = linuxvm.New(m, rc, alloc)
	case "bonsai":
		sys = bonsaivm.New(m, rc, alloc)
	default:
		fmt.Fprintf(os.Stderr, "vmtrace: unknown -sys %q\n", sysName)
		os.Exit(2)
	}

	var r workload.Result
	var fr *workload.FleetResult
	var fsr *workload.FileServeResult
	switch wl {
	case "filemap":
		cfg := workload.DefaultFileServeConfig()
		if iters != 200 {
			cfg.Procs = iters
			if cfg.MaxLive > iters {
				cfg.MaxLive = iters
			}
		}
		res := workload.FileServe(env, sys, cores, alloc, cfg)
		fsr = &res
		r = res.Result
	case "fleet":
		cfg := workload.DefaultFleetConfig()
		if iters != 200 {
			cfg.Procs = iters
			if cfg.MaxLive > iters {
				cfg.MaxLive = iters
			}
		}
		res := workload.Fleet(env, sys, cores, cfg)
		fr = &res
		r = res.Result
	case "local":
		r = workload.Local(env, sys, cores, iters, pages)
	case "pipeline":
		if cores < 2 {
			fmt.Fprintln(os.Stderr, "vmtrace: pipeline needs >= 2 cores")
			os.Exit(2)
		}
		r = workload.Pipeline(env, sys, cores, iters, max(pages, 2))
	case "global":
		r = workload.Global(env, sys, cores, max(2, iters/40), max(pages, 4))
	case "protect":
		r = workload.Protect(env, sys, cores, iters, max(pages, 4))
	case "fork":
		r = workload.Fork(env, sys, cores, iters, max(pages, 4))
	case "spawn":
		r = workload.Spawn(env, sys, cores, iters, max(pages, 4))
	case "clone":
		// figures/clone.txt's shape: 1024-page slices, 8 pages touched, a
		// fortieth of the iterations (5 rounds at the default 200).
		r = workload.Clone(env, sys, cores, max(2, iters/40), 1024, 8)
	default:
		fmt.Fprintf(os.Stderr, "vmtrace: unknown -workload %q\n", wl)
		os.Exit(2)
	}

	fmt.Printf("%s on %s, %d cores, %d iters\n\n", wl, sys.Name(), cores, iters)
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
	for i := 0; i < cores; i++ {
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
	if breakdown {
		printBreakdown(m)
	}
}

// printBreakdown prints where m's cycles went since the workload's
// ResetStats: per cause, the cycles of all cores and their share, and the
// share of the makespan core (the one whose clock ended last).
func printBreakdown(m *hw.Machine) {
	all := m.Cycles()
	span := 0
	for i := 1; i < m.NCores(); i++ {
		if m.CPU(i).Now() > m.CPU(span).Now() {
			span = i
		}
	}
	last := m.CPU(span).Cycles()
	share := func(n, of uint64) float64 {
		if of == 0 {
			return 0
		}
		return 100 * float64(n) / float64(of)
	}
	fmt.Printf("\nwhere the cycles went (makespan core %d):\n", span)
	fmt.Printf("%-16s %16s %8s %12s\n", "cause", "cycles", "share", "core share")
	for k := hw.Cause(0); k < hw.NCause; k++ {
		if all[k] == 0 {
			continue
		}
		fmt.Printf("%-16s %16d %7.2f%% %11.2f%%\n", k, all[k], share(all[k], all.Total()), share(last[k], last.Total()))
	}
	fmt.Printf("%-16s %16d\n", "total", all.Total())
}
