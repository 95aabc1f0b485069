package harness

import (
	"fmt"

	"radixvm/internal/mem"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

// FleetLives is the live-space sweep of the committed fleet figure: how
// many address spaces the pool holds simultaneously resident, 64 up to the
// ISSUE's 4096-space headline.
var FleetLives = []int{64, 256, 1024, 4096}

// FleetQuickLives is the CI smoke sweep of the live-space axis.
var FleetQuickLives = []int{64, 256}

// FigFleet is the process-fleet figure: a machine-wide scheduler running
// Poisson spawn arrivals of multithreaded COW children against one hot
// warmed template, with a bounded pool of live address spaces. Three
// tables:
//
//  1. Spawn throughput across cores for every system. Each spawn forks the
//     32 MB template: linux and bonsai serialize every fork's dup_mmap
//     pass on the template's one address-space lock and broadcast the
//     children's COW breaks, so their curves stay flat; radixvm's O(1)
//     generation fork and targeted breaks let the same fleet scale.
//  2. Spawn-to-first-touch latency percentiles (radixvm, 8 cores) as the
//     live-space count sweeps 64 -> 4096 with LRU teardown recycling the
//     pool under its memory ceiling.
//  3. Refcache review pressure over the same sweep: thousands of address
//     spaces being born and torn down push object counts through the
//     per-core delta caches, and the review queue depth bounds the
//     per-epoch examination cost.
//
// Everything runs under the deterministic gang schedule, so every cell —
// including the latency percentiles — is bit-stable run-to-run and gated
// byte-for-byte (figures/fleet.txt).
func FigFleet(o Options, lives []int) []*Table {
	thr := &Table{Title: "fleet: process-fleet spawn throughput (K spawns/sec)"}
	for _, f := range factories() {
		thr.sweep(o.Cores, f.name, "K spawns/s", func(e *workload.Env, a *mem.Allocator, n int) float64 {
			return workload.Fleet(e, f.make(e, a), n, workload.DefaultFleetConfig()).SpawnsPerSec() / 1e3
		})
	}

	const cores = 8
	lat := &Table{Title: fmt.Sprintf("fleet: spawn-to-first-touch latency, radixvm @ %d cores (K cycles; columns: live spaces)", cores)}
	rev := &Table{Title: fmt.Sprintf("fleet: refcache review pressure, radixvm @ %d cores (columns: live spaces)", cores)}
	for _, live := range lives {
		cfg := workload.DefaultFleetConfig()
		cfg.MaxLive = live
		// A quarter of the fleet beyond the residency cap, so the LRU
		// teardown path runs at every sweep point.
		cfg.Procs = live + live/4
		e, a := env(cores)
		r := workload.Fleet(e, vm.New(e.M, e.RC, a, nil), cores, cfg)
		lat.Rows = append(lat.Rows,
			Row{Series: "p50", Cores: live, Value: float64(r.P50) / 1e3, Unit: "K cycles"},
			Row{Series: "p99", Cores: live, Value: float64(r.P99) / 1e3, Unit: "K cycles"})
		rev.Rows = append(rev.Rows,
			Row{Series: "reviews/spawn", Cores: live, Value: float64(r.Reviews) / float64(r.Spawns), Unit: "objs"},
			Row{Series: "review-queue-high", Cores: live, Value: float64(r.ReviewQHigh), Unit: "objs"})
	}
	return []*Table{thr, lat, rev}
}
