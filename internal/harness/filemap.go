package harness

import (
	"fmt"

	"radixvm/internal/mem"
	"radixvm/internal/workload"
)

// FileMapLives is the live-process sweep of the committed filemap figure.
var FileMapLives = []int{32, 128, 512}

// FileMapQuickLives is the CI smoke sweep of the live-process axis.
var FileMapQuickLives = []int{32, 128}

// FigFileMap is the shared page cache figure: a fleet of multithreaded
// reader processes mapping one hot file, with a writeback/truncate ticker
// revoking a rotating window of its pages while they read. Four tables:
//
//  1. Read throughput across cores for every system — the page cache
//     serves one filled frame to every later mapper, so the fault path's
//     scalability (per-core page tables and per-page locks vs mmap_sem
//     and a shared table) sets the curve.
//  2. Shootdown IPIs per writeback across cores. RadixVM revokes each
//     page against its exact sharer set (the mapping metadata's TLBCores),
//     so the cost tracks how many cores actually read the revoked window;
//     linux and bonsai broadcast per address space mapping the file.
//  3. Invalidation pressure as the live-process count sweeps at 8 cores:
//     IPIs per writeback for every system (the baselines grow with the
//     fleet, radixvm tracks actual sharers), the per-page sharer-set
//     high-water, and refcache reviews per writeback — revoked and
//     truncated pages drain through the per-core delta caches.
//  4. Where the ticker's time goes, across cores: its cycles per round inside
//     the revocations, the address spaces they walked into, and the interrupt
//     rounds one writeback or truncate sent. The run ends when the ticker
//     does, so this is what bends table 1: RadixVM visits the holders of the
//     window's pages and interrupts the union of their sharers in at most one
//     round (a cross-socket target costs three times an on-socket one), the
//     baselines visit every space that maps the file and broadcast from each.
//
// Everything runs under the deterministic gang schedule, so every cell is
// bit-stable run-to-run and gated byte-for-byte (figures/filemap.txt).
func FigFileMap(o Options, lives []int) []*Table {
	thr := &Table{Title: "filemap: shared-file read throughput (M faults/sec)"}
	ipis := &Table{Title: "filemap: shootdown IPIs per writeback"}
	tick := &Table{Title: "filemap: the ticker's revocations per round (K cycles inside them; address spaces visited)"}
	var visits, rounds []Row
	for _, f := range factories() {
		// One run per core count fills a row of every table.
		thr.sweep(o.Cores, f.name, "M faults/s", func(e *workload.Env, a *mem.Allocator, n int) float64 {
			r := workload.FileServe(e, f.make(e, a), n, a, workload.DefaultFileServeConfig())
			ipis.Rows = append(ipis.Rows, Row{Series: f.name, Cores: n, Value: r.IPIsPerWriteback(), Unit: "IPIs/wb"})
			tick.Rows = append(tick.Rows, Row{Series: f.name + " Kcycles", Cores: n, Value: r.TickerCyclesPerRound() / 1e3, Unit: "per round"})
			visits = append(visits, Row{Series: f.name + " spaces", Cores: n, Value: r.VisitsPerRound(), Unit: "per round"})
			rounds = append(rounds, Row{Series: f.name + " rounds/wb", Cores: n, Value: r.RoundsPerWriteback(), Unit: "per wb"})
			return r.FaultsPerSec() / 1e6
		})
	}
	// The header prints the last row's unit: the visits close the table.
	tick.Rows = append(append(tick.Rows, rounds...), visits...)

	const cores = 8
	prs := &Table{Title: fmt.Sprintf("filemap: invalidation pressure @ %d cores (columns: live processes)", cores)}
	for _, live := range lives {
		cfg := workload.DefaultFileServeConfig()
		cfg.MaxLive = live
		cfg.Procs = live + live/4
		for _, f := range factories() {
			e, a := env(cores)
			r := workload.FileServe(e, f.make(e, a), cores, a, cfg)
			prs.Rows = append(prs.Rows, Row{Series: f.name + " IPIs/wb", Cores: live, Value: r.IPIsPerWriteback(), Unit: "IPIs/wb"})
			if f.name == "radixvm" {
				wbs := float64(r.Writebacks + r.Truncates)
				prs.Rows = append(prs.Rows,
					Row{Series: "sharer-high", Cores: live, Value: float64(r.SharerHigh), Unit: "cores"},
					Row{Series: "reviews/wb", Cores: live, Value: float64(r.Reviews) / wbs, Unit: "objs"})
			}
		}
	}
	return []*Table{thr, ipis, prs, tick}
}
